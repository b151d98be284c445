package repro_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// The daemons under test listen on fixed loopback ports below 32768, the
// bottom of Linux's ephemeral range: go test ./... runs packages in
// parallel, connect() hands out runs of consecutive even ephemeral ports,
// and a port held by another package's live connection cannot be bound.

// buildOnce compiles the command binaries used by the CLI tests into a
// shared temporary directory.
var buildOnce = struct {
	sync.Once
	dir string
	err error
}{}

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "powercap-bins")
		if err != nil {
			buildOnce.err = err
			return
		}
		for _, tool := range []string{"powersim", "powfigures", "powmgrd", "powagentd", "powctl", "powbench", "powcoordd"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildOnce.err = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
		buildOnce.dir = dir
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.dir
}

func TestPowersimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	dir := t.TempDir()
	series := filepath.Join(dir, "series.csv")
	jobs := filepath.Join(dir, "jobs.csv")
	events := filepath.Join(dir, "events.jsonl")
	traceOut := filepath.Join(dir, "trace.jsonl")

	out, err := exec.Command(filepath.Join(bin, "powersim"),
		"-class", "C", "-training", "20m", "-eval", "30m",
		"-series", series, "-jobs", jobs, "-events", events,
		"-record-trace", traceOut).CombinedOutput()
	if err != nil {
		t.Fatalf("powersim: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"assumptions (§II.D):", "controllability", "P_max", "ΔP×T",
		"performance", "thresholds", "timeline",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("powersim output missing %q:\n%s", want, text)
		}
	}
	for _, f := range []string{series, jobs, events, traceOut} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("artefact %s missing or empty (%v)", f, err)
		}
	}

	// Replay the recorded trace under a different policy.
	out, err = exec.Command(filepath.Join(bin, "powersim"),
		"-class", "C", "-training", "20m", "-eval", "30m",
		"-policy", "hri", "-replay-trace", traceOut).CombinedOutput()
	if err != nil {
		t.Fatalf("powersim replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "replaying") {
		t.Errorf("replay output:\n%s", out)
	}
}

func TestPowersimCLIBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	cases := [][]string{
		{"-class", "Z"},
		{"-pmax", "banana"},
		{"-policy", "bogus", "-class", "C", "-eval", "1m"},
	}
	for _, args := range cases {
		if err := exec.Command(filepath.Join(bin, "powersim"), args...).Run(); err == nil {
			t.Errorf("powersim %v succeeded, want failure", args)
		}
	}
}

func TestPowfiguresCLIMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	out, err := exec.Command(filepath.Join(bin, "powfigures"),
		"-fig", "thresholds", "-scale", "quick", "-format", "markdown").CombinedOutput()
	if err != nil {
		t.Fatalf("powfigures: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "| seed |") || !strings.Contains(string(out), "0.930") {
		t.Errorf("markdown output:\n%s", out)
	}
	if err := exec.Command(filepath.Join(bin, "powfigures"), "-fig", "nope").Run(); err == nil {
		t.Error("unknown figure accepted")
	}
}

// fakeManager runs an in-test TCP server standing in for powmgrd whose
// reply behaviour is scripted per connection: reply == "" means read the
// request and go silent (client must hit its timeout); anything else is
// written back verbatim as the status reply line.
func fakeManager(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
				if reply == "" {
					// Hold the connection open past any client
					// timeout without answering.
					time.Sleep(30 * time.Second)
					return
				}
				_, _ = conn.Write([]byte(reply + "\n"))
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestPowctlQueryFailureModes drives the powctl binary through the
// QueryStatus failure paths: a manager that never answers (timeout), one
// that answers garbage (decode error), and one that answers with the
// wrong envelope kind (unexpected reply) — then against a live powmgrd
// for the success path.
func TestPowctlQueryFailureModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	powctl := filepath.Join(bin, "powctl")

	cases := []struct {
		name  string
		reply string
	}{
		{"timeout", ""},
		{"malformed", `{not json...`},
		{"wrong-kind", `{"type":"command","node":1,"level":2}`},
		{"missing-stats", `{"type":"status"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeManager(t, tc.reply)
			start := time.Now()
			out, err := exec.Command(powctl, "-addr", addr, "-timeout", "500ms").CombinedOutput()
			if err == nil {
				t.Fatalf("powctl against %s manager succeeded:\n%s", tc.name, out)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("powctl took %v to fail; timeout not honoured", d)
			}
		})
	}

	// Success path against a live powmgrd with no agents connected.
	t.Run("live-powmgrd", func(t *testing.T) {
		const addr = "127.0.0.1:29717"
		mgr := exec.Command(filepath.Join(bin, "powmgrd"),
			"-addr", addr, "-pl", "400W", "-ph", "600W", "-period", "50ms")
		if err := mgr.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			mgr.Process.Kill()
			mgr.Wait()
		}()
		var lastOut []byte
		var lastErr error
		for i := 0; i < 40; i++ {
			lastOut, lastErr = exec.Command(powctl, "-addr", addr, "-timeout", "2s").CombinedOutput()
			if lastErr == nil {
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		if lastErr != nil {
			t.Fatalf("powctl never reached live powmgrd: %v\n%s", lastErr, lastOut)
		}
		text := string(lastOut)
		for _, want := range []string{"agents          0", "thresholds", "command errors"} {
			if !strings.Contains(text, want) {
				t.Errorf("powctl output missing %q:\n%s", want, text)
			}
		}

		// -json prints the full StatusReply as one decodable object.
		out, err := exec.Command(powctl, "-addr", addr, "-timeout", "2s", "-json").CombinedOutput()
		if err != nil {
			t.Fatalf("powctl -json: %v\n%s", err, out)
		}
		var st wire.StatusReply
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatalf("powctl -json output not a StatusReply: %v\n%s", err, out)
		}
		if st.ThresholdPLW != 400 || st.ThresholdPHW != 600 {
			t.Errorf("decoded thresholds PL=%v PH=%v, want 400/600", st.ThresholdPLW, st.ThresholdPHW)
		}
	})
}

// httpGetRetry fetches a URL, retrying while the daemon boots.
func httpGetRetry(t *testing.T, url string) string {
	t.Helper()
	var lastErr error
	for i := 0; i < 40; i++ {
		resp, err := http.Get(url)
		if err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				return string(body)
			}
			lastErr = err
		} else {
			lastErr = err
		}
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return ""
}

// TestMetricsEndpointsCLI boots powmgrd and powagentd with -metrics-addr
// and scrapes both observability endpoints over HTTP: the manager's
// /metrics and /debug/cycles, and the agent's /metrics.
func TestMetricsEndpointsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	const (
		addr       = "127.0.0.1:29727"
		mgrMetrics = "127.0.0.1:29728"
		agtMetrics = "127.0.0.1:29729"
	)
	mgr := exec.Command(filepath.Join(bin, "powmgrd"),
		"-addr", addr, "-pl", "400W", "-ph", "600W", "-period", "50ms",
		"-metrics-addr", mgrMetrics)
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		mgr.Process.Kill()
		mgr.Wait()
	}()
	agent := exec.Command(filepath.Join(bin, "powagentd"),
		"-manager", addr, "-node", "7", "-sample", "50ms", "-tick", "10ms",
		"-metrics-addr", agtMetrics)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		agent.Process.Kill()
		agent.Wait()
	}()

	// Manager /debug/cycles: poll until the control loop has run so the
	// staged timelines (and their registry histograms) exist.
	var reply struct {
		Cycles int64 `json:"cycles"`
		Spans  []struct {
			Stages []struct {
				Stage string `json:"stage"`
			} `json:"stages"`
		} `json:"spans"`
	}
	for i := 0; i < 40; i++ {
		cyc := httpGetRetry(t, "http://"+mgrMetrics+"/debug/cycles")
		if err := json.Unmarshal([]byte(cyc), &reply); err != nil {
			t.Fatalf("/debug/cycles not JSON: %v\n%s", err, cyc)
		}
		if reply.Cycles > 0 && len(reply.Spans) > 0 {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if reply.Cycles == 0 || len(reply.Spans) == 0 {
		t.Fatalf("/debug/cycles never showed a cycle: %+v", reply)
	}
	if st := reply.Spans[0].Stages; len(st) == 0 || st[0].Stage != "sense" {
		t.Errorf("first cycle does not open with sense: %+v", st)
	}

	// Manager /metrics: registry samples including the staged-cycle
	// histograms, live with the control loop.
	body := httpGetRetry(t, "http://"+mgrMetrics+"/metrics")
	for _, want := range []string{"cycles ", "agents ", "cycle_stage_sense_micros_count", "pl_w 400"} {
		if !strings.Contains(body, want) {
			t.Errorf("manager /metrics missing %q:\n%s", want, body)
		}
	}

	// Agent /metrics: its own counters, samples flowing.
	abody := httpGetRetry(t, "http://"+agtMetrics+"/metrics")
	for _, want := range []string{"samples_pushed", "commands_applied", "failsafe_trips"} {
		if !strings.Contains(abody, want) {
			t.Errorf("agent /metrics missing %q:\n%s", want, abody)
		}
	}

	// powctl -watch renders bounded sparkline polls against the live
	// manager and exits on its own.
	out, err := exec.Command(filepath.Join(bin, "powctl"),
		"-addr", addr, "-watch", "100ms", "-samples", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("powctl -watch: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"poll 4/4", "power", "collect", "fan-out", "select Δ", "µs"} {
		if !strings.Contains(text, want) {
			t.Errorf("powctl -watch output missing %q:\n%s", want, text)
		}
	}
}

// TestPowbenchCLI drives the powbench binary against a separately-running
// powmgrd process — the literal "open-loop driver against a live powmgrd"
// acceptance path — and checks the persisted BENCH entry.
func TestPowbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	const addr = "127.0.0.1:29737"
	// Thresholds sized for the scaled 8-agent fleet (uncapped ≈2.1 kW).
	mgr := exec.Command(filepath.Join(bin, "powmgrd"),
		"-addr", addr, "-pl", "1300W", "-ph", "1600W", "-period", "25ms", "-tg", "3", "-policy", "mpc-c")
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		mgr.Process.Kill()
		mgr.Wait()
	}()
	// Wait for the daemon to accept status queries.
	for i := 0; i < 40; i++ {
		if exec.Command(filepath.Join(bin, "powctl"), "-addr", addr, "-timeout", "1s").Run() == nil {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}

	out := filepath.Join(t.TempDir(), "BENCH_scenarios.json")
	cmd := exec.Command(filepath.Join(bin, "powbench"),
		"-addr", addr, "-scenarios", "flash-crowd", "-connections", "8", "-cycles", "60",
		"-sample-every", "10ms", "-workers", "4", "-pipeline", "2", "-out", out)
	text, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("powbench: %v\n%s", err, text)
	}
	for _, want := range []string{"flash-crowd", "samples=", "status p50/p99", "wrote"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("powbench output missing %q:\n%s", want, text)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Scenario    string  `json:"scenario"`
		Agents      int     `json:"agents"`
		Samples     int64   `json:"samples_sent"`
		StatusP99US float64 `json:"status_p99_us"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("BENCH file not JSON: %v\n%s", err, data)
	}
	if len(entries) != 1 || entries[0].Scenario != "flash-crowd" || entries[0].Agents != 8 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Samples == 0 || entries[0].StatusP99US <= 0 {
		t.Errorf("empty measurements: %+v", entries[0])
	}

	// Unknown scenario fails loudly.
	if err := exec.Command(filepath.Join(bin, "powbench"), "-scenarios", "bogus").Run(); err == nil {
		t.Error("powbench accepted an unknown scenario")
	}
}

// TestPowctlCoordinatorStatus points powctl at a live powcoordd with one
// governed powmgrd cabinet under it: the CLI must detect from the reply
// alone that it dialled a coordinator and render the coordinator block —
// budget, fleet roll-up and one child line with liveness, negotiated
// codec and granted band. -json must round-trip the full envelope with
// the coordinator marker node and the child Batch row.
func TestPowctlCoordinatorStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	const coordAddr = "127.0.0.1:29747"
	coord := exec.Command(filepath.Join(bin, "powcoordd"),
		"-addr", coordAddr, "-budget", "900W", "-ph", "1100W", "-period", "100ms")
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		coord.Process.Kill()
		coord.Wait()
	}()
	mgr := exec.Command(filepath.Join(bin, "powmgrd"),
		"-addr", "127.0.0.1:29748", "-pl", "400W", "-ph", "600W", "-period", "100ms",
		"-coordinator", coordAddr, "-cabinet", "2")
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		mgr.Process.Kill()
		mgr.Wait()
	}()

	// The child row exists from the cabinet's subscribe, one coordinator
	// period before its first grant: poll -json (the full envelope, with the
	// coordinator marker node and the child report row) until that row
	// carries a grant, then assert both forms against the settled state.
	powctl := filepath.Join(bin, "powctl")
	var env wire.Envelope
	var out []byte
	var err error
	for i := 0; i < 40; i++ {
		env = wire.Envelope{}
		out, err = exec.Command(powctl, "-addr", coordAddr, "-timeout", "2s", "-json").CombinedOutput()
		if err == nil && json.Unmarshal(out, &env) == nil &&
			len(env.Batch) == 1 && env.Batch[0].BudgetW > 0 {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("powctl -json: %v\n%s", err, out)
	}
	if env.Node != -1 || env.Stats == nil {
		t.Fatalf("not a coordinator envelope: node=%d stats=%v\n%s", env.Node, env.Stats != nil, out)
	}
	if len(env.Batch) != 1 || env.Batch[0].Node != 2 || env.Batch[0].BudgetW <= 0 {
		t.Errorf("child batch rows = %+v", env.Batch)
	}
	if env.Stats.ThresholdPLW != 900 {
		t.Errorf("coordinator budget = %v, want 900", env.Stats.ThresholdPLW)
	}

	text, err := exec.Command(powctl, "-addr", coordAddr, "-timeout", "2s").CombinedOutput()
	if err != nil {
		t.Fatalf("powctl: %v\n%s", err, text)
	}
	for _, want := range []string{
		"coordinator", "budget          PL 900.0 W, PH 1100.0 W",
		"children        1 known", "child 2", "live", "grant",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("powctl coordinator output missing %q:\n%s", want, text)
		}
	}
}

func TestDaemonCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	// Manager on an ephemeral-ish port (pick one unlikely to clash).
	const addr = "127.0.0.1:29707"
	mgr := exec.Command(filepath.Join(bin, "powmgrd"),
		"-addr", addr, "-pl", "400W", "-ph", "600W", "-period", "100ms")
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		mgr.Process.Kill()
		mgr.Wait()
	}()

	agent := exec.Command(filepath.Join(bin, "powagentd"),
		"-manager", addr, "-node", "3", "-sample", "100ms", "-tick", "20ms")
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		agent.Process.Kill()
		agent.Wait()
	}()

	// powctl retries until the daemon answers with a connected agent.
	deadline := 40
	for i := 0; i < deadline; i++ {
		out, err := exec.Command(filepath.Join(bin, "powctl"), "-addr", addr).CombinedOutput()
		if err == nil && strings.Contains(string(out), "agents          1") {
			if !strings.Contains(string(out), "thresholds") {
				t.Errorf("powctl output:\n%s", out)
			}
			return
		}
		exec.Command("sleep", "0.25").Run()
	}
	t.Fatal("powctl never saw the connected agent")
}

// syncBuffer collects a running daemon's output for polling.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon starts one of the built daemons with its output captured and
// kills it when the test ends.
func startDaemon(t *testing.T, bin, name string, args ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd, out
}

// awaitOutput waits up to 10 s for a daemon's output to hold want.
func awaitOutput(t *testing.T, out *syncBuffer, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(out.String(), want); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("output never showed %q:\n%s", want, out)
		}
	}
}

// pollPowctl runs powctl against addr until its output holds want, or
// fails the test after 10 s.
func pollPowctl(t *testing.T, bin, addr, want string) {
	t.Helper()
	var out []byte
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		out, _ = exec.Command(filepath.Join(bin, "powctl"), "-addr", addr, "-timeout", "1s").CombinedOutput()
		if strings.Contains(string(out), want) {
			return
		}
	}
	t.Fatalf("powctl -addr %s never showed %q; last output:\n%s", addr, want, out)
}

// TestDaemonCLIFailsafeFlags holds both daemons to the one failsafe rule:
// -failsafe-pl alone names a band whose P_H scales from the daemon's own,
// and -failsafe-ph alone is refused with its reason.
func TestDaemonCLIFailsafeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	const nobody = "127.0.0.1:29758" // a parent that never answers

	t.Run("powmgrd-pl-alone", func(t *testing.T) {
		const addr = "127.0.0.1:29757"
		startDaemon(t, bin, "powmgrd", "-addr", addr, "-pl", "400W", "-ph", "600W",
			"-period", "50ms", "-coordinator", nobody, "-failsafe-pl", "300W")
		pollPowctl(t, bin, addr, "thresholds")
	})
	for _, tc := range []struct{ name, addr, parentFlag string }{
		{"powmgrd", "127.0.0.1:29759", "-coordinator"},
		{"powcoordd", "127.0.0.1:29760", "-parent"},
	} {
		t.Run(tc.name+"-ph-alone", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, tc.name), "-addr", tc.addr,
				"-period", "50ms", tc.parentFlag, nobody, "-failsafe-ph", "500W").CombinedOutput()
			if err == nil || !strings.Contains(string(out), "-failsafe-ph needs -failsafe-pl") {
				t.Fatalf("%s with -failsafe-ph alone: %v, want it refused with its reason:\n%s", tc.name, err, out)
			}
		})
	}
}

// TestDaemonCLIUnwritableJournal holds both daemons, primary and standby
// alike, to the one journal rule: a -journal path that cannot be written
// refuses to start, exit 1, naming the path — none runs on without the
// persistence it was asked for.
func TestDaemonCLIUnwritableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	for _, tc := range []struct {
		name, role, addr string
		args             []string
	}{
		{"powmgrd", "primary", "127.0.0.1:29765", nil},
		{"powcoordd", "primary", "127.0.0.1:29766", nil},
		{"powmgrd", "standby", "127.0.0.1:29767", []string{"-standby-of", "127.0.0.1:29768"}},
		{"powcoordd", "standby", "127.0.0.1:29769", []string{"-standby-of", "127.0.0.1:29770"}},
	} {
		t.Run(tc.name+"-"+tc.role, func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "no-such-dir", "d.journal")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, tc.name), append([]string{
				"-addr", tc.addr, "-period", "50ms", "-journal", journal,
				"-lease", filepath.Join(dir, "lease.json"),
			}, tc.args...)...).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), journal) {
				t.Fatalf("%s on an unwritable journal: %v, want exit 1 naming %s:\n%s", tc.name, err, journal, out)
			}
		})
	}
}

// TestDaemonCLIStandbyTakeover runs -standby-of through each daemon binary:
// a leased primary and its warm standby share a lease file, the standby
// announces the miss budget in force (4 also for -lease-miss-budget 0, which
// asks for the default), the primary is killed, and the standby must promote
// itself at epoch 2 and answer powctl as the leader, then stop cleanly on
// SIGINT. A second, slower standby is given the group's other members
// (-standby-of primary,standby): it follows the promoted standby — whose
// powctl shows one follower — and promotes at epoch 3 once that one stops.
func TestDaemonCLIStandbyTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end")
	}
	bin := binaries(t)
	for _, tc := range []struct {
		name                       string
		primary, standby, standby2 string
		role                       []string
		standbyFlags               []string // every one leaves the miss budget at 4
	}{
		{"powmgrd", "127.0.0.1:29761", "127.0.0.1:29762", "127.0.0.1:29771", []string{"-pl", "400W", "-ph", "600W"}, nil},
		{"powcoordd", "127.0.0.1:29763", "127.0.0.1:29764", "127.0.0.1:29772", []string{"-budget", "900W"}, []string{"-lease-miss-budget", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ha := func(addr, journal string) []string {
				return append([]string{"-addr", addr, "-period", "50ms",
					"-lease", filepath.Join(dir, "lease.json"), "-lease-every", "50ms",
					"-journal", filepath.Join(dir, journal)}, tc.role...)
			}
			primary, _ := startDaemon(t, bin, tc.name, ha(tc.primary, "primary.journal")...)
			pollPowctl(t, bin, tc.primary, "epoch 1, leader true")
			standby, out := startDaemon(t, bin, tc.name,
				append(append(ha(tc.standby, "standby.journal"), "-standby-of", tc.primary), tc.standbyFlags...)...)
			awaitOutput(t, out, "standby of "+tc.primary)
			awaitOutput(t, out, "miss budget 4)")
			// The second standby tolerates 40 stale renewals, so the first
			// wins the primary's death and the second follows it.
			group := tc.primary + "," + tc.standby
			_, out2 := startDaemon(t, bin, tc.name,
				append(ha(tc.standby2, "standby2.journal"), "-standby-of", group, "-lease-miss-budget", "40")...)
			awaitOutput(t, out2, "standby of "+group)

			primary.Process.Kill()
			primary.Wait()
			awaitOutput(t, out, "promoted at epoch 2")
			pollPowctl(t, bin, tc.standby, "epoch 2, leader true")
			pollPowctl(t, bin, tc.standby, "leader true, followers 1")

			standby.Process.Signal(os.Interrupt)
			if err := standby.Wait(); err != nil {
				t.Fatalf("promoted standby did not stop cleanly: %v\n%s", err, out)
			}
			if !strings.Contains(out.String(), tc.name+": shutting down") {
				t.Errorf("no shutdown line:\n%s", out)
			}
			awaitOutput(t, out2, "promoted at epoch 3")
			pollPowctl(t, bin, tc.standby2, "epoch 3, leader true")
		})
	}
}
