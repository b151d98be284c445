package managerd

import (
	"context"
	"testing"
	"time"

	"repro/internal/agentd"
	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

func startServer(t *testing.T, thr power.Thresholds, pol policy.Policy) *Server {
	t.Helper()
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       pol,
		Tg:           3,
		ControlEvery: 50 * time.Millisecond,
		Thresholds:   thr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func startAgents(t *testing.T, ctx context.Context, addr string, n int) []*agentd.Agent {
	t.Helper()
	agents := make([]*agentd.Agent, n)
	for i := 0; i < n; i++ {
		a, err := agentd.New(agentd.Config{
			NodeID:       node.ID(i),
			ManagerAddrs: []string{addr},
			SampleEvery:  50 * time.Millisecond,
			TickEvery:    10 * time.Millisecond,
			Model:        power.TianheNode(),
			Seed:         int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		go func() { _ = a.Run(ctx) }()
	}
	return agents
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Addr: "127.0.0.1:0", Model: power.TianheNode(), Policy: policy.MPC{},
		Tg: 3, ControlEvery: time.Second,
		Thresholds: power.Thresholds{PL: 100, PH: 200},
	}
	bad := base
	bad.ControlEvery = 0
	if _, err := New(bad); err == nil {
		t.Error("zero control period accepted")
	}
	bad = base
	bad.Thresholds = power.Thresholds{PL: 200, PH: 100}
	if _, err := New(bad); err == nil {
		t.Error("inverted thresholds accepted")
	}
	bad = base
	bad.Policy = nil
	if _, err := New(bad); err == nil {
		t.Error("nil policy accepted")
	}
	bad = base
	bad.Model = power.Model{}
	if _, err := New(bad); err == nil {
		t.Error("invalid model accepted")
	}
}

// TestEndToEndSamplesFlow moved to harness_reuse_test.go: it now runs on
// the internal/harness cluster (in-memory fault network) instead of
// loopback TCP, proving the harness is a drop-in substrate for the
// daemon-plane tests. TestEndToEndCapping below intentionally stays on
// real TCP to keep socket-path coverage.

func TestEndToEndCapping(t *testing.T) {
	// Thresholds far below 4 busy nodes (~1 kW): the daemon must drive
	// agents towards their floor levels.
	srv := startServer(t, power.Thresholds{PL: 500, PH: 700}, policy.MPCC{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := startAgents(t, ctx, srv.Addr(), 4)

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		applied := 0
		minLevel := 10
		for _, a := range agents {
			applied += a.CommandsApplied()
			if l := a.Level(); l < minLevel {
				minLevel = l
			}
		}
		if applied >= 4 && minLevel < 9 {
			st := srv.Status()
			if st.DegradeOps == 0 {
				t.Errorf("agents degraded but manager counted nothing: %+v", st)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("capping never actuated; status %+v", srv.Status())
}

func TestQueryStatus(t *testing.T) {
	srv := startServer(t, power.Thresholds{PL: units.MW(1), PH: units.MW(2)}, policy.MPC{})
	env, err := daemon.QueryStatus(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := env.Stats; st.ThresholdPLW != 1e6 {
		t.Errorf("status thresholds = %+v", st)
	}
}

func TestQueryStatusConnectionError(t *testing.T) {
	if _, err := daemon.QueryStatus("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("query to dead address succeeded")
	}
}

func TestStaleSamplesDropped(t *testing.T) {
	srv := startServer(t, power.Thresholds{PL: units.MW(1), PH: units.MW(2)}, policy.MPC{})
	ctx, cancel := context.WithCancel(context.Background())
	startAgents(t, ctx, srv.Addr(), 2)

	// Let samples arrive, then kill the agents and wait past StaleAfter.
	time.Sleep(500 * time.Millisecond)
	cancel()
	time.Sleep(600 * time.Millisecond)
	st := srv.Status()
	if st.LastPowerW != 0 && st.DroppedStale == 0 {
		t.Errorf("stale agent samples still counted: %+v", st)
	}
}

func TestBusyTimeAccounted(t *testing.T) {
	srv := startServer(t, power.Thresholds{PL: units.MW(1), PH: units.MW(2)}, policy.MPC{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startAgents(t, ctx, srv.Addr(), 8)
	time.Sleep(time.Second)
	st := srv.Status()
	if st.Cycles == 0 {
		t.Fatal("no cycles ran")
	}
	if st.BusyMicros <= 0 {
		t.Error("busy time not accounted")
	}
	if st.CPUUtilise <= 0 || st.CPUUtilise > 1 {
		t.Errorf("cpu utilisation = %v", st.CPUUtilise)
	}
}

func TestLearnerMode(t *testing.T) {
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPC{},
		Tg:           3,
		ControlEvery: 40 * time.Millisecond,
		Thresholds:   power.Thresholds{PL: 1, PH: 2}, // replaced by the learner
		Learn: &LearnConfig{
			PMax:     units.KW(5),
			Training: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startAgents(t, ctx, srv.Addr(), 4)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Status()
		// After training, thresholds must derive from the observed fleet
		// peak (~1 kW for 4 nodes), far below the 5 kW seed.
		if st.Cycles > 15 && st.ThresholdPHW > 100 && st.ThresholdPHW < 4650 {
			if r := st.ThresholdPLW / st.ThresholdPHW; r < 0.89 || r > 0.92 {
				t.Errorf("PL/PH = %v, want 0.84/0.93 ≈ 0.903", r)
			}
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("learner never adopted fleet peak: %+v", srv.Status())
}

func TestLearnerConfigValidation(t *testing.T) {
	_, err := New(Config{
		Addr: "127.0.0.1:0", Model: power.TianheNode(), Policy: policy.MPC{},
		Tg: 3, ControlEvery: time.Second,
		Thresholds: power.Thresholds{PL: 1, PH: 2},
		Learn:      &LearnConfig{PMax: 0, Training: time.Second},
	})
	if err == nil {
		t.Error("zero learner PMax accepted")
	}
}
