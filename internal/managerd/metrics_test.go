package managerd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/wire"
)

// startMetricsFleet builds a faultnet daemon with the observability HTTP
// endpoint enabled and n fake agents connected (hello + one sample each),
// parked on an hour-long control period so the test drives cycles via
// StepCycle. Thresholds put the fleet solidly in yellow so every cycle
// exercises classify, select, actuate and settle.
func startMetricsFleet(t *testing.T, n int) *Server {
	t.Helper()
	nw := faultnet.New(int64(n))
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, 250*time.Millisecond, power.Thresholds{PL: 10, PH: 1e9})
	cfg.MetricsAddr = "127.0.0.1:0"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for i := 0; i < n; i++ {
		c := dialFaultAgent(t, nw, uint64(i), 10, 10)
		if err := c.Send(busySample(i, 10)); err != nil {
			t.Fatal(err)
		}
		// Drain manager→agent traffic so command writes never block.
		go func(c *wire.Conn) {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SamplesReceived() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("samples never landed: %d/%d", srv.SamplesReceived(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return srv
}

// scrapeMetrics fetches /metrics and parses the plain samples into a map.
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// TestStatusReplyRegistryMapping is the drift catcher: every StatusReply
// field must carry an obs tag naming an instrument that is actually
// registered by a live server, and the reflective mapping must resolve
// them all. Adding a reply field without backing it by an instrument
// fails here instead of silently reading zero forever.
func TestStatusReplyRegistryMapping(t *testing.T) {
	srv := startMetricsFleet(t, 3)
	srv.StepCycle()

	rt := reflect.TypeOf(wire.StatusReply{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name := f.Tag.Get("obs")
		if name == "" {
			t.Errorf("StatusReply.%s has no obs tag", f.Name)
			continue
		}
		if !srv.Obs().Has(name) {
			t.Errorf("StatusReply.%s maps to instrument %q, which the server never registers", f.Name, name)
		}
	}

	srv.refreshGauges()
	if _, err := statusFromRegistry(srv.Obs()); err != nil {
		t.Fatalf("statusFromRegistry: %v", err)
	}

	// The mapped reply carries live values end to end.
	st := srv.Status()
	if st.Cycles != 1 || st.Agents != 3 || st.Shards == 0 {
		t.Errorf("mapped reply looks dead: %+v", st)
	}
	if st.LastPowerW <= 0 {
		t.Errorf("last power not mapped: %+v", st.LastPowerW)
	}
	if st.LastCollectMicros < 0 || st.CollectMicros < st.LastCollectMicros {
		t.Errorf("collect times inconsistent: last=%d total=%d", st.LastCollectMicros, st.CollectMicros)
	}
}

// statusFromRegistry must report, not invent, when instruments are absent.
func TestStatusFromRegistryMissingInstrument(t *testing.T) {
	if _, err := statusFromRegistry(obs.NewRegistry()); err == nil {
		t.Fatal("empty registry mapped without error")
	}
}

// TestMetricsEndpointEndToEnd drives cycles through a live daemon and
// asserts the scraped /metrics and /debug/cycles reflect exactly the
// driven workload: cycle counts, state residency, per-stage spans.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	const agents, cycles = 3, 5
	srv := startMetricsFleet(t, agents)
	for i := 0; i < cycles; i++ {
		srv.StepCycle()
	}
	st := srv.Status()
	if st.Cycles != cycles || st.YellowCycles != cycles {
		t.Fatalf("driven %d cycles, status %+v", cycles, st)
	}
	if st.DegradeOps == 0 {
		t.Fatalf("yellow cycles issued no commands: %+v", st)
	}

	m := scrapeMetrics(t, srv.MetricsAddr())
	for name, want := range map[string]float64{
		"cycles":           float64(st.Cycles),
		"yellow_cycles":    float64(st.YellowCycles),
		"green_cycles":     0,
		"red_cycles":       0,
		"degrade_ops":      float64(st.DegradeOps),
		"agents":           float64(agents),
		"samples_received": float64(st.SamplesReceived),
		"last_power_w":     st.LastPowerW,
		"pl_w":             st.ThresholdPLW,
		"trained":          1,
		"shards":           float64(st.Shards),
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// Stage histograms counted one observation per driven cycle (settle
	// included: StepCycle waits for fan-out completion).
	for _, h := range []string{"cycle_stage_sense_micros_count", "cycle_stage_classify_micros_count",
		"cycle_stage_select_micros_count", "cycle_stage_actuate_micros_count",
		"cycle_stage_settle_micros_count", "cycle_total_micros_count"} {
		if got := m[h]; got != cycles {
			t.Errorf("/metrics %s = %v, want %d", h, got, cycles)
		}
	}

	resp, err := http.Get("http://" + srv.MetricsAddr() + "/debug/cycles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply obs.CyclesReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Cycles != cycles || len(reply.Spans) != cycles {
		t.Fatalf("/debug/cycles reply: cycles=%d spans=%d, want %d", reply.Cycles, len(reply.Spans), cycles)
	}
	for _, sp := range reply.Spans {
		var stages []string
		outcomes := map[string]string{}
		for _, sg := range sp.Stages {
			stages = append(stages, sg.Stage)
			outcomes[sg.Stage] = sg.Outcome
		}
		want := []string{"sense", "classify", "select", "actuate", "settle"}
		if fmt.Sprint(stages) != fmt.Sprint(want) {
			t.Fatalf("cycle %d stages = %v, want %v", sp.Cycle, stages, want)
		}
		if outcomes["classify"] != "yellow" {
			t.Errorf("cycle %d classify outcome = %q, want yellow", sp.Cycle, outcomes["classify"])
		}
		if !strings.HasPrefix(outcomes["sense"], fmt.Sprintf("readings=%d", agents)) {
			t.Errorf("cycle %d sense outcome = %q", sp.Cycle, outcomes["sense"])
		}
		if !strings.HasPrefix(outcomes["settle"], "cmds=") {
			t.Errorf("cycle %d settle outcome = %q", sp.Cycle, outcomes["settle"])
		}
	}
}

// TestNodeRecordsGauge: the table never forgets a node, and /metrics says
// how many it holds — three nodes hello and leave, three records stay.
func TestNodeRecordsGauge(t *testing.T) {
	nw := faultnet.New(1)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, 250*time.Millisecond, power.Thresholds{PL: 1e6, PH: 2e6})
	cfg.MetricsAddr = "127.0.0.1:0"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var conns []*wire.Conn
	for id := uint64(0); id < 3; id++ {
		conns = append(conns, dialFaultAgent(t, nw, id, 9, 9))
	}
	waitFor(t, 5*time.Second, "agents registered", func() bool { return srv.Status().Agents == 3 })
	for _, c := range conns {
		c.Close()
	}
	waitFor(t, 5*time.Second, "agents gone", func() bool { return srv.Status().Agents == 0 })
	if m := scrapeMetrics(t, srv.MetricsAddr()); m["node_records"] != 3 || m["agents"] != 0 {
		t.Errorf("/metrics node_records = %v, agents = %v; want 3 and 0", m["node_records"], m["agents"])
	}
}

// TestMetricsUnderCycleChurn hammers /metrics, /debug/cycles and the wire
// status path while the control loop churns, under the race detector: the
// read side must never block or torn-read the control loop.
func TestMetricsUnderCycleChurn(t *testing.T) {
	srv := startMetricsFleet(t, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.StepCycle()
			}
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 40; i++ {
		for _, path := range []string{"/metrics", "/debug/cycles", "/debug/cycles?n=2"} {
			resp, err := client.Get("http://" + srv.MetricsAddr() + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s -> %d", path, resp.StatusCode)
			}
		}
		if st := srv.Status(); st.Cycles < 0 {
			t.Fatalf("bogus status: %+v", st)
		}
	}
	close(stop)
	wg.Wait()
}

// A bad metrics address must fail Start cleanly, not leave the daemon
// half-up.
func TestMetricsAddrInvalid(t *testing.T) {
	nw := faultnet.New(1)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, time.Second, power.Thresholds{PL: 10, PH: 100})
	cfg.MetricsAddr = "256.256.256.256:bogus"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		srv.Stop()
		t.Fatal("invalid MetricsAddr accepted")
	}
}
