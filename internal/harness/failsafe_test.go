package harness

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/managerd"
	"repro/internal/power"
	"repro/internal/units"
)

// failsafeThresholds scales chaosThresholds to a 16-agent fleet: natural
// uncapped draw ≈ 4.2 kW, floored draw ≈ 2.5 kW.
var failsafeThresholds = power.Thresholds{PL: 3000, PH: 3750}

// TestManagerKillFailSafe is the control-plane-death acceptance scenario:
// with every agent's dead-man switch armed, killing the manager must
// drive the whole fleet to the failsafe floor within the grace window —
// the cap holds with zero managers alive — and a manager restart must
// adopt the self-degraded fleet and restore it. Runs in -short (CI wires
// it under -race).
func TestManagerKillFailSafe(t *testing.T) {
	const agents = 16
	c := Start(t, Options{
		Agents:         agents,
		Seed:           11,
		Thresholds:     failsafeThresholds,
		CommandTimeout: 100 * time.Millisecond,
		FailsafeAfter:  4,
		FailsafeLevel:  0,
	})
	c.AwaitAgents(agents, 20*time.Second)
	grace := time.Duration(c.Opt.FailsafeAfter) * c.Opt.SampleEvery

	// Phase A: the manager is alive and mostly green (commands are rare),
	// so for stretches far longer than the grace window the only manager
	// traffic agents see is heartbeats. No dead-man switch may fire.
	c.AwaitSettledBelow(float64(failsafeThresholds.PH), 5, 30*time.Second)
	time.Sleep(4 * grace)
	for i, a := range c.Agents {
		if a.FailsafeTrips() > 0 {
			t.Fatalf("agent %d tripped under a live manager", i)
		}
	}

	// Phase B: kill the manager. Every agent must self-degrade to the
	// failsafe floor within the grace window (plus redial/scheduler
	// slack); the floored fleet (~2.5 kW) sits below P_H by construction.
	killed := time.Now()
	c.StopManager()
	WaitUntil(t, grace+2*time.Second, func() bool {
		for _, a := range c.Agents {
			if a.Level() != c.Opt.FailsafeLevel || !a.Tripped() {
				return false
			}
		}
		return true
	}, "fleet never reached the failsafe floor (levels %v)", c.Levels())
	t.Logf("manager kill → all %d agents at floor %d in %v (grace %v)",
		agents, c.Opt.FailsafeLevel, time.Since(killed).Round(time.Millisecond), grace)

	// Phase C: restart. The new manager must see the whole fleet, hold the
	// cap (first estimates come from the floored fleet), adopt the
	// self-degraded nodes and restore them via steady green.
	c.StartManager()
	WaitUntil(t, 20*time.Second, func() bool {
		st := c.Status()
		return st.Agents == agents && st.LastPowerW > 0
	}, "restarted manager never saw the fleet (have %d)", c.Status().Agents)
	if st := c.Status(); st.LastPowerW > float64(failsafeThresholds.PH) {
		t.Errorf("floored fleet above P_H after restart: %+v", st)
	}
	WaitUntil(t, 20*time.Second, func() bool {
		for _, a := range c.Agents {
			if a.Tripped() {
				return false
			}
		}
		return c.MinLevel() > c.Opt.FailsafeLevel
	}, "fleet never restored from the failsafe floor (levels %v)", c.Levels())
	c.AwaitSettledBelow(float64(failsafeThresholds.PH), 5, 30*time.Second)
	t.Logf("post-restart: status %+v", c.Status())
}

// TestManagerRestartFromJournal proves crash recovery: a trained, capping
// manager is killed and restarted with an hour-long training window — only
// the journal can arm capping — and must resume immediately, reconciling
// the levels the fleet drifted to during the outage (the dead-man switches
// floored it), all under a 5% drop profile with partition rounds.
func TestManagerRestartFromJournal(t *testing.T) {
	const agents = 16
	jp := filepath.Join(t.TempDir(), "managerd.journal")
	c := Start(t, Options{
		Agents:         agents,
		Seed:           7,
		Thresholds:     power.Thresholds{PL: 1e6, PH: 2e6}, // superseded by the learner
		CommandTimeout: 100 * time.Millisecond,
		FailsafeAfter:  4,
		FailsafeLevel:  0,
		JournalPath:    jp,
		Learn:          &managerd.LearnConfig{PMax: units.KW(10), Training: 500 * time.Millisecond, AdjustEvery: 10},
		AgentProfile:   faultnet.Profile{DropProb: 0.05, FirstWriteClean: true},
	})
	c.AwaitAgents(agents, 20*time.Second)

	// Partition rounds while the first life trains and caps.
	for r := 0; r < 2; r++ {
		a := uint64(2 * r)
		b := a + 1
		c.Net.Partition(a, true, true)
		c.Net.Partition(b, true, true)
		time.Sleep(8 * c.Opt.ControlEvery)
		c.Net.Heal(a)
		c.Net.Heal(b)
		time.Sleep(4 * c.Opt.ControlEvery)
	}
	// First life must finish training, cap the fleet, and then recover it
	// off the floor (MinLevel > 0) before the kill: that leaves journaled
	// levels above the failsafe floor, so the outage creates real drift.
	WaitUntil(t, 30*time.Second, func() bool {
		st := c.Status()
		return st.Trained && st.JournalWrites >= 1 && st.DegradeOps >= 1 &&
			st.CommandAcks >= 1 && c.MinLevel() > 0
	}, "first life never trained+capped+journaled: %+v", c.Status())
	firstThr := c.Status().ThresholdPHW

	// Outage: the dead-man switches floor the fleet, so the levels on
	// record in the journal no longer match reality.
	c.StopManager()
	WaitUntil(t, 10*time.Second, func() bool {
		for _, a := range c.Agents {
			if !a.Tripped() {
				return false
			}
		}
		return true
	}, "dead-man switches never floored the fleet (levels %v)", c.Levels())

	// Restart with a training window no test could sit out: capping is
	// armed iff the journal restored the trained learner.
	c.Opt.Learn = &managerd.LearnConfig{PMax: units.KW(10), Training: time.Hour, AdjustEvery: 10}
	c.StartManager()
	st := c.Status()
	if !st.Trained {
		t.Fatalf("restarted manager not trained from journal: %+v", st)
	}
	if st.ThresholdPHW >= 1e6 || st.ThresholdPHW != firstThr {
		t.Errorf("restart lost the learned thresholds: have %.0f, want %.0f", st.ThresholdPHW, firstThr)
	}

	// One more partition round against the second life, then the fleet
	// must converge: every reconnecting agent reconciled (reported level
	// back in agreement with the last command), no retraining.
	c.Net.Partition(4, true, true)
	time.Sleep(8 * c.Opt.ControlEvery)
	c.Net.Heal(4)
	WaitUntil(t, 30*time.Second, func() bool {
		st := c.Status()
		return st.Agents == agents && st.Reconciles >= 1 && st.Drifted == 0
	}, "second life never reconciled the drifted fleet: %+v", c.Status())
	if st := c.Status(); !st.Trained {
		t.Errorf("manager lost trained state while reconciling: %+v", st)
	}
	t.Logf("post-restart: status %+v", c.Status())
}
