package repro_test

import (
	"bufio"
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
