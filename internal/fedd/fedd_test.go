package fedd

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/wire"
)

func validConfig() Config {
	return Config{
		Addr:         "127.0.0.1:0",
		Budget:       900,
		PH:           1000,
		Division:     budget.Proportional,
		ControlEvery: time.Hour, // cycles driven via StepCycle
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"no period", func(c *Config) { c.ControlEvery = 0 }, "positive control period"},
		{"inverted band", func(c *Config) { c.PH = c.Budget - 1 }, "global band"},
		{"unknown division", func(c *Config) { c.Division = budget.Division(99) }, "unknown division"},
		{"negative breaker", func(c *Config) { c.Breaker = -1 }, "negative breaker or floor"},
		{"negative floor", func(c *Config) { c.FloorW = -1 }, "negative breaker or floor"},
		{"negative row", func(c *Config) { c.ParentAddrs, c.Row = []string{"127.0.0.1:1"}, -2 }, "negative row index"},
		{"inverted failsafe", func(c *Config) {
			c.ParentAddrs = []string{"127.0.0.1:1"}
			c.FailsafeBudget = power.Thresholds{PL: 10, PH: 5}
		}, "failsafe budget"},
		{"unopenable journal", func(c *Config) { c.JournalPath = t.TempDir() }, "fedd: journal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.edit(&cfg)
			srv, err := New(cfg)
			if err == nil {
				srv.Stop()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func startServer(t *testing.T, edit func(*Config)) *Server {
	t.Helper()
	cfg := validConfig()
	if edit != nil {
		edit(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func dial(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	t.Cleanup(func() { conn.Close() })
	return conn
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A status probe against a coordinator, through the real chassis: the
// reply is marked CoordinatorNode, carries the aggregate and one Batch
// row per child, and names no codec, since the probe stays on JSON.
func TestStatusEnvelopeOverTheWire(t *testing.T) {
	srv := startServer(t, func(c *Config) {
		// Without a lease the coordinator leads at its journal's epoch.
		c.Journal, _ = replica.Open("")
		c.Journal.SetEpoch(4)
	})

	child := dial(t, srv.Addr())
	sub := wire.Envelope{
		Type: wire.KindCabReport, Node: 2, PowerW: 300, DemandW: 400, Agents: 8, Healthy: 7,
		Codecs: []string{wire.CodecBinary, wire.CodecJSON},
	}
	if err := child.Send(sub); err != nil {
		t.Fatal(err)
	}
	if hello, err := child.Recv(); err != nil || hello.Type != wire.KindHello || hello.Codec != wire.CodecBinary {
		t.Fatalf("subscribe reply: %+v err=%v", hello, err)
	}
	waitFor(t, "child registered", func() bool { return len(srv.CabinetStates()) == 1 })
	srv.StepCycle()
	if grant, err := child.Recv(); err != nil || grant.Type != wire.KindCabBudget || grant.BudgetW != 900 {
		t.Fatalf("grant: %+v err=%v", grant, err)
	}

	probe := dial(t, srv.Addr())
	if err := probe.Send(wire.Envelope{Type: wire.KindStatus, Codecs: []string{wire.CodecBinary}}); err != nil {
		t.Fatal(err)
	}
	env, err := probe.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != wire.KindStatus || env.Node != CoordinatorNode || env.Stats == nil || env.Codec != "" {
		t.Fatalf("not a coordinator status envelope: %+v", env)
	}
	st := env.Stats
	if st.Epoch != 4 || !st.Leader || st.Governed || st.Cycles != 1 || st.ThresholdPLW != 900 || st.ThresholdPHW != 1000 {
		t.Errorf("aggregate: %+v", st)
	}
	if st.Agents != 8 || st.HealthyNodes != 7 || st.LostNodes != 0 || st.LastPowerW != 300 || st.DemandW != 400 {
		t.Errorf("fleet roll-up: %+v", st)
	}
	if len(env.Batch) != 1 {
		t.Fatalf("%d child rows, want 1", len(env.Batch))
	}
	row := env.Batch[0]
	if row.Type != wire.KindCabReport || row.Node != 2 || row.Level != 1 || row.Codec != wire.CodecBinary ||
		row.BudgetW != 900 || row.Seq == 0 || row.Agents != 8 {
		t.Errorf("child row: %+v", row)
	}
}

// upwardReports plays a row's parent over ParentDial: it answers each
// subscription and keeps the newest cab_report the row sends, and how many
// it has received.
type upwardReports struct {
	mu   sync.Mutex
	last wire.Envelope
	n    int
}

func (u *upwardReports) dial() (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		conn := wire.NewConn(server)
		defer conn.Close()
		first, err := conn.Recv()
		if err != nil || conn.Confirm(wire.Choose(&first), &wire.Envelope{Type: wire.KindHello}) != nil {
			return
		}
		var env wire.Envelope
		for conn.Next(&env, nil) == nil {
			u.mu.Lock()
			u.last, u.n = env, u.n+1
			u.mu.Unlock()
		}
	}()
	return client, nil
}

func (u *upwardReports) newest() (wire.Envelope, int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.last, u.n
}

// A row's status is the roll-up it reports upward. With FloorW > 0, one
// child partitioned until it is lost and one that reports power but has
// not sensed a demand yet, the status probe's power, demand and tallies
// after a cycle equal the fields of the next cab_report the row sends its
// parent: the lost child adds the floor to demand, the fresh one counts at
// its current draw.
func TestRowStatusEqualsUpwardReport(t *testing.T) {
	var parent upwardReports
	srv := startServer(t, func(c *Config) {
		c.FloorW = 50
		c.StaleAfter = 100 * time.Millisecond
		c.ParentDial = parent.dial
		c.ReportEvery = 5 * time.Millisecond
	})

	subscribe := func(report wire.Envelope) *wire.Conn {
		c := dial(t, srv.Addr())
		if err := c.Send(report); err != nil {
			t.Fatal(err)
		}
		if hello, err := c.Recv(); err != nil || hello.Type != wire.KindHello {
			t.Fatalf("subscribe reply: %+v err=%v", hello, err)
		}
		return c
	}
	childState := func(child int) (known, live bool) {
		for _, cs := range srv.CabinetStates() {
			if cs.Cabinet == child {
				return true, cs.Live
			}
		}
		return false, false
	}

	// Child 0 reports once and then falls silent: partitioned until lost.
	subscribe(wire.Envelope{Type: wire.KindCabReport, Node: 0, PowerW: 200, DemandW: 250, Agents: 4, Healthy: 4})
	waitFor(t, "child 0 lost", func() bool { known, live := childState(0); return known && !live })

	// Child 1 keeps reporting power, but no demand.
	report := wire.Envelope{Type: wire.KindCabReport, Node: 1, PowerW: 300, Agents: 8, Healthy: 6}
	child := subscribe(report)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if child.Send(report) != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()
	waitFor(t, "child 1 live", func() bool { _, live := childState(1); return live })
	waitFor(t, "the row subscribed upward", func() bool { _, n := parent.newest(); return n > 0 })

	srv.StepCycle()
	env, err := daemon.QueryStatus(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := env.Stats
	// The next two reports to land may have been built before the cycle
	// ended (one read but not yet counted, one blocked in its write); the
	// one after them was not.
	_, n := parent.newest()
	waitFor(t, "a report built after the cycle", func() bool { _, m := parent.newest(); return m >= n+3 })
	up, _ := parent.newest()

	if st.DemandW != up.DemandW || st.LastPowerW != up.PowerW || st.Agents != up.Agents || st.HealthyNodes != up.Healthy {
		t.Errorf("status demand %v W, power %v W, agents %d, healthy %d; the upward report says %v W, %v W, %d, %d",
			st.DemandW, st.LastPowerW, st.Agents, st.HealthyNodes, up.DemandW, up.PowerW, up.Agents, up.Healthy)
	}
	if up.DemandW != 350 || up.PowerW != 500 || up.Agents != 12 || up.Healthy != 10 || st.LostNodes != 1 {
		t.Errorf("roll-up: demand %v W (want 300 + the 50 W floor), power %v W (want 500), agents %d (want 12), healthy %d (want 10), lost %d (want 1)",
			up.DemandW, up.PowerW, up.Agents, up.Healthy, st.LostNodes)
	}
}

// /metrics must not wait for a coordination cycle to notice a follower:
// the chassis refreshes the replica gauges on every render.
func TestMetricsRefreshReplicaGaugesOnRender(t *testing.T) {
	srv := startServer(t, func(c *Config) { c.MetricsAddr = "127.0.0.1:0" })
	scrape := func() string {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.MetricsAddr()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := scrape(); !strings.Contains(body, "replica_conns 0\n") {
		t.Fatalf("no follower yet, but /metrics says:\n%s", body)
	}
	follower := dial(t, srv.Addr())
	if err := follower.Send(wire.Envelope{Type: wire.KindJournalAck}); err != nil {
		t.Fatal(err)
	}
	// No cycle runs (ControlEvery is an hour): only the render can see it.
	waitFor(t, "follower in /metrics", func() bool { return strings.Contains(scrape(), "replica_conns 1\n") })
}
