package fedd

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/power"
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
		{"unknown codec", func(c *Config) { c.WireCodec = "morse" }, "unknown wire codec"},
		{"negative row", func(c *Config) { c.ParentAddr, c.Row = "127.0.0.1:1", -2 }, "negative row index"},
		{"inverted failsafe", func(c *Config) {
			c.ParentAddr = "127.0.0.1:1"
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
// row per child, and answers the codec advertisement.
func TestStatusEnvelopeOverTheWire(t *testing.T) {
	srv := startServer(t, func(c *Config) { c.Epoch = 4 })

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
	if env.Type != wire.KindStatus || env.Node != CoordinatorNode || env.Stats == nil || env.Codec != wire.CodecBinary {
		t.Fatalf("not a coordinator status envelope: %+v", env)
	}
	st := env.Stats
	if st.Epoch != 4 || !st.Leader || st.Governed || st.Cycles != 1 || st.ThresholdPLW != 900 || st.ThresholdPHW != 1000 {
		t.Errorf("aggregate: %+v", st)
	}
	if st.Agents != 8 || st.HealthyNodes != 7 || st.LostNodes != 0 || st.BinaryConns != 1 || st.LastPowerW != 300 || st.DemandW != 400 {
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
