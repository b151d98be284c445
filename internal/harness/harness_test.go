package harness

import (
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/power"
)

// cappingThresholds sits inside the band a 4-agent fleet can actually
// hold: natural uncapped draw ≈ 1.05 kW, floored draw ≈ 0.63 kW.
var cappingThresholds = power.Thresholds{PL: 850, PH: 1100}

func TestClusterBootsAndSettles(t *testing.T) {
	c := Start(t, Options{Agents: 4})
	c.AwaitAgents(4, 10*time.Second)
	WaitUntil(t, 10*time.Second, func() bool {
		st := c.Status()
		return st.Cycles >= 4 && st.LastPowerW > 0
	}, "cycles never ran against live samples")
	if st := c.Status(); st.DegradeOps != 0 {
		t.Errorf("generous thresholds still degraded nodes: %+v", st)
	}
}

func TestCappingUnderSampleDrops(t *testing.T) {
	// 20% sample loss: the capping loop must still drive the fleet to
	// the safe band (EXPERIMENTS.md E2's graceful-degradation claim,
	// exercised against real connection faults rather than a simulated
	// drop in the collector).
	c := Start(t, Options{
		Agents:       4,
		Thresholds:   cappingThresholds,
		AgentProfile: faultnet.Profile{DropProb: 0.20, FirstWriteClean: true},
	})
	c.AwaitAgents(4, 10*time.Second)
	c.AwaitSettledBelow(float64(cappingThresholds.PH), 5, 20*time.Second)
	if c.MinLevel() == 9 {
		t.Error("power settled but no node was ever degraded")
	}
}

func TestReconnectChurnLeaksNoGoroutines(t *testing.T) {
	// ≥20 forced reconnects; the cleanup-time leak check asserts the
	// goroutine count returns to the pre-Start baseline.
	c := Start(t, Options{Agents: 4})
	c.AwaitAgents(4, 10*time.Second)
	const churns = 24
	forced := 0
	for i := 0; i < churns; i++ {
		if c.ForceReconnect(uint64(i%4), 10*time.Second) {
			forced++
		}
	}
	if forced < 20 {
		t.Fatalf("only %d of %d reconnects had a live link to kill", forced, churns)
	}
	// The cluster must still be fully functional afterwards.
	st0 := c.Status()
	WaitUntil(t, 10*time.Second, func() bool { return c.Status().Cycles > st0.Cycles+2 },
		"control loop stopped after reconnect churn")
}

func TestLevelSurvivesReconnect(t *testing.T) {
	// Consistency invariant: a reconnect must not silently reset an
	// applied throttle. Blackhole the command path first so no fresh
	// command can explain a level change.
	c := Start(t, Options{Agents: 4, Thresholds: cappingThresholds})
	c.AwaitAgents(4, 10*time.Second)
	WaitUntil(t, 15*time.Second, func() bool { return c.Agents[0].Level() < 9 },
		"agent 0 was never degraded")

	c.Net.Partition(0, false, true) // manager→agent silenced, samples still flow
	time.Sleep(3 * c.Opt.ControlEvery)
	before := c.Agents[0].Level()
	if !c.ForceReconnect(0, 10*time.Second) {
		t.Fatal("no live link for agent 0")
	}
	time.Sleep(5 * c.Opt.ControlEvery)
	if after := c.Agents[0].Level(); after != before {
		t.Errorf("level silently changed across reconnect: %d → %d", before, after)
	}
	c.Net.Heal(0)
}

func TestRestoreResumesAfterPartitionHeals(t *testing.T) {
	// Liveness invariant: cut every agent off (both directions), watch
	// restore stall, heal, watch restore resume.
	c := Start(t, Options{Agents: 4, Thresholds: cappingThresholds})
	c.AwaitAgents(4, 10*time.Second)
	WaitUntil(t, 15*time.Second, func() bool { return c.Status().DegradeOps > 0 },
		"capping never degraded anyone")

	for k := uint64(0); k < 4; k++ {
		c.Net.Partition(k, true, true)
	}
	// Wait until the manager's view has gone stale (all samples stop).
	WaitUntil(t, 10*time.Second, func() bool { return c.Status().LastPowerW == 0 },
		"manager still sees samples through a full partition")
	stalled := c.Status()
	time.Sleep(10 * c.Opt.ControlEvery)
	if st := c.Status(); st.RestoreOps != stalled.RestoreOps || st.DegradeOps != stalled.DegradeOps {
		t.Errorf("ops advanced during full partition: %+v → %+v", stalled, st)
	}
	if st := c.Status(); st.DroppedStale == stalled.DroppedStale && stalled.DroppedStale == 0 {
		t.Errorf("full partition produced no stale-drop accounting: %+v", st)
	}

	for k := uint64(0); k < 4; k++ {
		c.Net.Heal(k)
	}
	WaitUntil(t, 20*time.Second, func() bool {
		st := c.Status()
		return st.RestoreOps > stalled.RestoreOps
	}, "restore never resumed after heal (ops %+v)", stalled)
}

func TestSlowReaderDoesNotStallControlCycle(t *testing.T) {
	// Satellite fix proof: one agent that stops draining its socket
	// costs each command at most CommandTimeout; the control cycle keeps
	// its period and the timeouts are accounted in CommandErrors.
	c := Start(t, Options{
		Agents:         4,
		Thresholds:     cappingThresholds,
		CommandTimeout: 100 * time.Millisecond,
	})
	c.AwaitAgents(4, 10*time.Second)
	WaitUntil(t, 15*time.Second, func() bool { return c.Status().DegradeOps > 0 },
		"capping never started")

	// ~8 B/s: a ~50-byte command needs seconds to drain — far beyond
	// CommandTimeout — and toward a throttled reader the link is a
	// rendezvous, so the writer blocks until the drain or its deadline.
	c.Net.SetClientProfile(3, faultnet.Profile{ReadBytesPerSec: 8})
	st0 := c.Status()
	start := time.Now()
	WaitUntil(t, 20*time.Second, func() bool { return c.Status().CommandErrors > st0.CommandErrors },
		"stalled agent never produced a command timeout")
	elapsed := time.Since(start)
	st1 := c.Status()
	cycles := st1.Cycles - st0.Cycles
	// Without the per-send deadline a single stalled send blocks the
	// loop for the full message drain (seconds); with it the loop loses
	// at most CommandTimeout per cycle. Require at least a third of the
	// nominal cycle rate.
	minCycles := int(elapsed/(c.Opt.ControlEvery)) / 3
	if cycles < minCycles {
		t.Errorf("control loop stalled by slow reader: %d cycles in %v (want ≥ %d)",
			cycles, elapsed, minCycles)
	}
	c.Net.SetClientProfile(3, faultnet.Profile{})
}

func TestPartitionAccountingMatchesInjectedFaults(t *testing.T) {
	// Accounting invariant: stale-sample drops track the injected
	// partition within tolerance (stale detection lags by StaleAfter).
	c := Start(t, Options{Agents: 4})
	c.AwaitAgents(4, 10*time.Second)
	// Stale accounting only covers agents the manager has seen a sample
	// from; let every agent deliver a few before cutting them off.
	WaitUntil(t, 10*time.Second, func() bool { return c.Status().LastPowerW > 0 },
		"no samples before partition")
	time.Sleep(5 * c.Opt.SampleEvery)
	st0 := c.Status()

	c.Net.Partition(1, true, true)
	c.Net.Partition(2, true, true)
	time.Sleep(20 * c.Opt.ControlEvery)
	st1 := c.Status()
	c.Net.Heal(1)
	c.Net.Heal(2)

	cycles := st1.Cycles - st0.Cycles
	dropped := st1.DroppedStale - st0.DroppedStale
	if cycles == 0 {
		t.Fatal("no cycles during partition window")
	}
	// Two partitioned agents, one stale-drop each per cycle once past
	// StaleAfter (3 periods by default).
	min, max := cycles-8, 2*cycles
	if dropped < min || dropped > max {
		t.Errorf("DroppedStale = %d over %d cycles with 2 agents partitioned, want in [%d, %d]",
			dropped, cycles, min, max)
	}
}
