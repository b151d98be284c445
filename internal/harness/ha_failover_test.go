package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/managerd"
	"repro/internal/scenario"
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

// TestTwoStandbysOneLeader: two warm standbys of one primary, both forced
// to promote the moment it dies mid-spike. An epoch is claimed by one
// exclusive create, so no two managers that still lead ever share one:
// a standby leads and the other is refused, or — had it claimed only after
// the first had written the lease — leads the next epoch, and the first
// deposes within two lease periods. The fleet ends on one leader, no
// dead-man switch trips, and every manager's trace keeps Algorithm 1.
func TestTwoStandbysOneLeader(t *testing.T) {
	const (
		agents     = 16
		leaseEvery = 15 * time.Millisecond
	)
	var (
		mu       sync.Mutex
		traces   [3][]scenario.CycleRecord // the primary's, then each standby's
		promoted []*managerd.Server
		deposed  = map[*managerd.Server]time.Time{}
		shared   []uint64 // epochs two leading managers were seen to share
	)
	record := func(i int) func(scenario.CycleRecord) {
		return func(r scenario.CycleRecord) {
			mu.Lock()
			traces[i] = append(traces[i], r)
			mu.Unlock()
		}
	}
	c := Start(t, Options{
		Agents:         agents,
		Seed:           17,
		Thresholds:     failsafeThresholds,
		CommandTimeout: 100 * time.Millisecond,
		FailsafeAfter:  8,
		FailsafeLevel:  0,
		LeasePath:      filepath.Join(t.TempDir(), "lease.json"),
		LeaseEvery:     leaseEvery,
		RecordCycle:    record(0),
	})
	c.AwaitAgents(agents, 20*time.Second)
	var sbs [2]*StandbyHandle
	for i := range sbs {
		c.Opt.RecordCycle = record(i + 1)
		sbs[i] = c.StartStandby(4)
	}
	WaitUntil(t, 20*time.Second, func() bool {
		st := c.Status()
		return st.ReplicaConns >= 2 && st.DegradeOps >= 1 && st.ReplicaLagEntries <= 1
	}, "standbys never caught up while capping: %+v", c.Status())

	// Sample every promoted manager throughout: among those not deposed,
	// each epoch has one.
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			mu.Lock()
			leading := map[uint64]bool{}
			for _, s := range promoted {
				if s.Deposed() {
					if _, seen := deposed[s]; !seen {
						deposed[s] = time.Now()
					}
				} else if e := s.Epoch(); leading[e] {
					shared = append(shared, e)
				} else {
					leading[e] = true
				}
			}
			mu.Unlock()
		}
	}()
	defer func() { close(stop); <-sampled }()

	c.StopManager()
	type outcome struct {
		srv *managerd.Server
		err error
		at  time.Time
	}
	outcomes := make(chan outcome, len(sbs))
	for _, sb := range sbs {
		sb.Promote()
	}
	for _, sb := range sbs {
		go func() {
			srv, err := sb.Await(10 * time.Second)
			if err == nil {
				t.Cleanup(srv.Stop)
				mu.Lock()
				promoted = append(promoted, srv)
				mu.Unlock()
			}
			outcomes <- outcome{srv, err, time.Now()}
		}()
	}
	var leaders []outcome
	for range sbs {
		o := <-outcomes
		if o.err == nil {
			leaders = append(leaders, o)
		} else if !strings.Contains(o.err.Error(), "already claimed") {
			t.Fatalf("a standby failed to promote for a reason other than a lost claim: %v", o.err)
		}
	}
	var leader *managerd.Server
	switch len(leaders) {
	case 1:
		leader = leaders[0].srv
		t.Logf("one standby led epoch %d, the other was refused", leader.Epoch())
	case 2:
		first, second := leaders[0], leaders[1]
		if first.srv.Epoch() > second.srv.Epoch() {
			first, second = second, first
		}
		if second.srv.Epoch() != first.srv.Epoch()+1 {
			t.Fatalf("standbys led epochs %d and %d, want consecutive", first.srv.Epoch(), second.srv.Epoch())
		}
		WaitUntil(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			_, ok := deposed[first.srv]
			return ok
		}, "the standby at epoch %d never deposed under epoch %d", first.srv.Epoch(), second.srv.Epoch())
		led := first.at
		if second.at.After(led) {
			led = second.at
		}
		mu.Lock()
		took := deposed[first.srv].Sub(led)
		mu.Unlock()
		if took > 2*leaseEvery {
			t.Errorf("epoch %d deposed %v after both standbys led, want within two lease periods (%v)",
				first.srv.Epoch(), took, 2*leaseEvery)
		}
		leader = second.srv
		t.Logf("standbys led epochs %d and %d; the first deposed after %v", first.srv.Epoch(), leader.Epoch(), took)
	default:
		t.Fatal("neither standby promoted")
	}

	c.Server = leader
	c.AwaitAgents(agents, 20*time.Second)
	c.AwaitSettledBelow(float64(failsafeThresholds.PH), 5, 30*time.Second)
	if st := c.Status(); !st.Leader || leader.Deposed() || st.Epoch < 2 {
		t.Fatalf("the fleet's manager is not an acting leader: %+v", st)
	}
	for i, a := range c.Agents {
		if a.Tripped() || a.FailsafeTrips() > 0 {
			t.Errorf("agent %d tripped its dead-man switch across the double promotion (trips %d)", i, a.FailsafeTrips())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(shared) > 0 {
		t.Errorf("two leading managers shared epochs %v", shared)
	}
	for i, recs := range traces {
		if err := scenario.CheckAlgorithmOne(recs, c.Opt.Tg); err != nil {
			t.Errorf("manager %d violated Algorithm 1: %v", i, err)
		}
	}
}
