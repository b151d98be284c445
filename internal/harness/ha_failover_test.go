package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestManagerKillFailSafeWarmStandby is the high-availability acceptance
// scenario (experiment E13): same fleet and thresholds as
// TestManagerKillFailSafe, but with a warm standby replicating the
// primary's journal and watching its lease. Killing the primary mid-cap
// must promote the standby within one failsafe grace window, so the cap
// holds continuously and NO agent ever trips its dead-man switch — the
// fleet never free-falls to the failsafe floor. Runs in -short (CI wires
// it under -race and exports the E13 takeover-latency artifact).
func TestManagerKillFailSafeWarmStandby(t *testing.T) {
	const (
		agents     = 16
		missBudget = 4
	)
	lease := filepath.Join(t.TempDir(), "lease.json")
	c := Start(t, Options{
		Agents:         agents,
		Seed:           11,
		Thresholds:     failsafeThresholds,
		CommandTimeout: 100 * time.Millisecond,
		FailsafeAfter:  8, // grace 400ms: far above takeover, far below test noise
		FailsafeLevel:  0,
		LeasePath:      lease,
		LeaseEvery:     15 * time.Millisecond,
	})
	grace := time.Duration(c.Opt.FailsafeAfter) * c.Opt.SampleEvery
	c.AwaitAgents(agents, 20*time.Second)

	// Warm standby up; wait until it replicates live: the follower is
	// registered, the red fleet has forced capping entries into the
	// journal, and replication lag is within one control cycle (the
	// paper's bound for a takeover that cannot lose commands).
	sb := c.StartStandby(missBudget)
	WaitUntil(t, 20*time.Second, func() bool {
		st := c.Status()
		return st.ReplicaConns >= 1 && st.DegradeOps >= 1 &&
			st.JournalAppends >= 1 && st.ReplicaLagEntries <= 1
	}, "standby never caught up while capping: %+v", c.Status())
	if sb.Store().Seq() == 0 {
		t.Fatalf("standby store empty despite drained lag")
	}

	// Kill the primary mid-spike. The standby must declare death via the
	// lease, bump the epoch, and bring a replacement manager up — all
	// inside one grace window, so the parked agent redials land on the
	// new leader before any dead-man switch fires.
	killed := time.Now()
	c.StopManager()
	c.AwaitTakeover(sb, grace)
	takeover := time.Since(killed)
	t.Logf("takeover in %v (grace %v)", takeover.Round(time.Millisecond), grace)

	// The whole fleet re-registers with the promoted leader and the cap
	// settles below P_H — continuity, not free-fall.
	c.AwaitAgents(agents, 20*time.Second)
	c.AwaitSettledBelow(float64(failsafeThresholds.PH), 5, 30*time.Second)
	for i, a := range c.Agents {
		if a.Tripped() || a.FailsafeTrips() > 0 {
			t.Errorf("agent %d tripped its dead-man switch across the failover (trips %d)",
				i, a.FailsafeTrips())
		}
	}
	st := c.Status()
	if st.Epoch < 2 || !st.Leader {
		t.Fatalf("promoted manager not leading at a fenced epoch: %+v", st)
	}
	if st.LastTakeoverMicros <= 0 {
		t.Errorf("takeover latency not recorded: %+v", st)
	}
	t.Logf("post-takeover: status %+v", st)

	// E13 artifact: takeover latency vs the grace window.
	if out := os.Getenv("E13_OUT"); out != "" {
		b, _ := json.MarshalIndent(map[string]any{
			"experiment":        "E13-manager-failover",
			"agents":            agents,
			"grace_ms":          grace.Milliseconds(),
			"takeover_ms":       takeover.Milliseconds(),
			"leaderless_us":     st.LastTakeoverMicros,
			"lease_every_ms":    c.Opt.LeaseEvery.Milliseconds(),
			"lease_miss_budget": missBudget,
			"epoch":             st.Epoch,
			"failsafe_trips":    0,
		}, "", "  ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Errorf("E13_OUT: %v", err)
		}
	}
}

// TestForcedPromotionDeposesPrimary drives the controlled-failover half:
// promoting the standby while the primary is perfectly healthy. The
// standby claims the lease at a higher epoch; the primary must read it,
// self-fence (depose, shed its agents), and the fleet must migrate to
// the new leader with its levels intact.
func TestForcedPromotionDeposesPrimary(t *testing.T) {
	const agents = 8
	lease := filepath.Join(t.TempDir(), "lease.json")
	c := Start(t, Options{
		Agents:         agents,
		Seed:           13,
		Thresholds:     failsafeThresholds,
		CommandTimeout: 100 * time.Millisecond,
		LeasePath:      lease,
		LeaseEvery:     15 * time.Millisecond,
	})
	c.AwaitAgents(agents, 20*time.Second)
	sb := c.StartStandby(4)
	WaitUntil(t, 20*time.Second, func() bool {
		return c.Status().ReplicaConns >= 1
	}, "standby never connected: %+v", c.Status())

	old := c.Server
	sb.Promote()
	c.AwaitTakeover(sb, 10*time.Second)

	// The deposed primary notices the claimed lease and steps down.
	WaitUntil(t, 10*time.Second, func() bool {
		return old.Deposed() && !old.Status().Leader
	}, "primary never self-fenced on the claimed lease")
	c.AwaitAgents(agents, 20*time.Second)
	if st := c.Status(); st.Epoch != 2 || !st.Leader {
		t.Fatalf("promoted leader status: %+v", st)
	}
	old.Stop()
}
