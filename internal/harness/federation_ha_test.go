package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
)

// TestFederationCoordinatorTakeoverNoFloors is the coordinator HA drill:
// two governed cabinets capping mid-spike under a leased coordinator
// with a warm standby replicating its grant journal; the leader is
// killed outright. The standby must promote a replacement — seeded from
// the replicated journal, at a fenced higher epoch — fast enough that no
// cabinet's BudgetGrace window expires: zero failsafe floors across the
// whole federation, asserted from each cabinet's instrument registry.
func TestFederationCoordinatorTakeoverNoFloors(t *testing.T) {
	const (
		cabinets = 2
		agents   = 4
		budget   = 1800 // fair grant ≈0.9 kW: between floored 0.63 and natural 1.05
		ph       = 2000
		// 40 control periods × 50ms = a 2s cabinet grace window; the
		// takeover (≈4 × 15ms lease misses + promote + redial) must land
		// far inside it.
		grace = 40
	)
	lease := &replica.Lease{
		Path:  filepath.Join(t.TempDir(), "coord-lease.json"),
		Every: 15 * time.Millisecond,
	}
	f := StartTree(t, TreeOptions{
		// Liveness is report freshness: the promoted coordinator seeds the
		// dead leader's grant state, so cabinets redialing within this
		// window never lose their reserved share.
		Tiers: []Tier{{Fanout: cabinets, StaleAfter: 2 * time.Second,
			Grace: grace, Failsafe: power.Thresholds{PL: 100, PH: 120}}},
		AgentsPerCabinet: agents,
		Budget:           budget,
		PH:               ph,
		Coord: func(_ []int, cfg *fedd.Config) {
			cfg.Lease = lease
			cfg.LeaseHolder = "coord-1"
		},
	})
	f.AwaitGoverned(20 * time.Second)
	if got := f.Coord().Epoch(); got != 1 {
		t.Fatalf("primary coordinator epoch = %d, want 1", got)
	}

	// Mid-spike with the standby fully caught up on the grant journal.
	sb := f.Coord().StartStandby(4)
	_ = sb
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range f.Cabinets() {
			if c.Status().DegradeOps < 1 {
				return false
			}
		}
		st := f.Coord().Status()
		return st.ReplicaConns >= 1 && st.JournalAppends >= 1 &&
			st.ReplicaLagEntries <= 1
	}, "coordinator standby never caught up while the fleet capped")

	preGrants := make([]int, cabinets)
	for i, c := range f.Cabinets() {
		preGrants[i] = c.Status().BudgetGrants
	}

	// Kill the leader. The lease goes stale, the standby promotes over
	// its replicated journal copy, and every cabinet redials the fresh
	// listener under its capped backoff.
	f.Coord().Stop()
	takeover := f.Coord().AwaitTakeover(sb, time.Duration(grace)*50*time.Millisecond)
	if got := takeover.Epoch(); got < 2 {
		t.Fatalf("promoted coordinator epoch = %d, want >= 2", got)
	}

	// Seeded continuity: the promoted coordinator knows both cabinets and
	// their granted bands before either has redialed.
	states := takeover.CabinetStates()
	if len(states) != cabinets {
		t.Fatalf("promoted coordinator seeded %d cabinets, want %d: %+v",
			len(states), cabinets, states)
	}
	for _, cs := range states {
		if !cs.Live || cs.GrantW <= 0 {
			t.Errorf("promoted coordinator lost cabinet %d's reserved share: %+v",
				cs.Cabinet, cs)
		}
	}

	// Fresh grants flow from the new leader before any grace window runs
	// out: every cabinet's grant counter advances past its pre-kill mark.
	WaitUntil(t, time.Duration(grace)*50*time.Millisecond, func() bool {
		for i, c := range f.Cabinets() {
			if c.Status().BudgetGrants <= preGrants[i] {
				return false
			}
		}
		return true
	}, "cabinets never received grants from the promoted coordinator")

	// The acceptance bar: zero failsafe floors anywhere, read from each
	// cabinet manager's own instrument registry — the takeover was
	// invisible to the governed tier.
	for i, c := range f.Cabinets() {
		if v, ok := c.Server.Obs().Value("budget_floors"); !ok || v != 0 {
			t.Errorf("cabinet %d floored during the takeover (budget_floors=%v)", i, v)
		}
		st := c.Status()
		if !st.Governed {
			t.Errorf("cabinet %d not governed after the takeover: %+v", i, st)
		}
	}

	// And the fleet still enforces a coherent division of the budget.
	WaitUntil(t, 15*time.Second, func() bool {
		sum := 0.0
		for _, cs := range f.Coord().CabinetStates() {
			if !cs.Live || cs.GrantW <= 0 {
				return false
			}
			sum += cs.GrantW
		}
		return sum <= budget*1.0001
	}, "promoted coordinator never settled a full division: %+v",
		f.Coord().CabinetStates())
}

// TestFederationCoordinatorColdRestart is the no-standby counterpart:
// the coordinator is killed outright mid-spike and later restarted over
// the same journal path. With nobody granting, every cabinet must run
// out its BudgetGrace window and floor itself to the failsafe band —
// the dead-man works at fleet scale — then rejoin governed once the
// restarted coordinator accepts its redial, with Algorithm 1 holding
// inside each cabinet across the whole outage.
func TestFederationCoordinatorColdRestart(t *testing.T) {
	const (
		cabinets = 2
		agents   = 4
		budget   = 1800
		ph       = 2000
	)
	failsafe := power.Thresholds{PL: 100, PH: 120}
	journal := filepath.Join(t.TempDir(), "coord-journal.jsonl")
	f := StartTree(t, TreeOptions{
		Tiers:            []Tier{{Fanout: cabinets, Grace: 3, Failsafe: failsafe}},
		AgentsPerCabinet: agents,
		Budget:           budget,
		PH:               ph,
		Coord: func(_ []int, cfg *fedd.Config) {
			cfg.JournalPath = journal
		},
	})
	f.AwaitGoverned(20 * time.Second)
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range f.Cabinets() {
			if c.Status().DegradeOps < 1 {
				return false
			}
		}
		return true
	}, "cabinets never started capping under their grants")

	// Kill the coordinator. Grants stop fleet-wide; every cabinet's grace
	// window (3 × 50ms) expires and the dead-man floors it.
	f.Coord().Stop()
	WaitUntil(t, 15*time.Second, func() bool {
		for _, c := range f.Cabinets() {
			st := c.Status()
			if st.Governed || st.BudgetFloors < 1 ||
				st.ThresholdPLW != float64(failsafe.PL) {
				return false
			}
		}
		return true
	}, "cabinets never floored to the failsafe band after the kill")

	// Restart over the same journal. The recovered coordinator seeds the
	// pre-crash grant state, cabinets redial under their capped backoff,
	// and each leaves its failsafe band for a fresh grant.
	restarted := f.Coord().Restart()
	if got := len(restarted.CabinetStates()); got != cabinets {
		t.Errorf("restarted coordinator recovered %d cabinets from its journal, want %d",
			got, cabinets)
	}
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range f.Cabinets() {
			st := c.Status()
			if !st.Governed || st.ThresholdPLW <= float64(failsafe.PH) {
				return false
			}
		}
		return true
	}, "cabinets never rejoined the restarted coordinator")

	// Restore follows: with the granted band back, nodes leave the floor.
	WaitUntil(t, 30*time.Second, func() bool {
		for _, c := range f.Cabinets() {
			if c.MinLevel() < 1 {
				return false
			}
		}
		return true
	}, "cabinets never restored off the failsafe floor")

	for cab := 0; cab < cabinets; cab++ {
		recs := f.Records(cab)
		if len(recs) == 0 {
			t.Fatalf("cabinet %d recorded no cycles", cab)
		}
		if err := scenario.CheckAlgorithmOne(recs, f.Cabinet(cab).Opt.Tg); err != nil {
			t.Errorf("cabinet %d violated Algorithm 1: %v", cab, err)
		}
	}
}

// TestCoordinatorJournalStaysBounded: a path-backed coordinator whose grants
// move nearly every cycle — a proportional division of a megawatt across
// three cabinets' fluctuating demand — keeps its journal's log at 60
// entries or fewer however many cycles it commits, because the store
// compacts itself, and reports those compactions as journal_writes.
func TestCoordinatorJournalStaysBounded(t *testing.T) {
	const every = 20 * time.Millisecond
	journal := filepath.Join(t.TempDir(), "coord.journal")
	f := StartTree(t, TreeOptions{
		Tiers:            []Tier{{Fanout: 3, Every: every}},
		AgentsPerCabinet: 2,
		Division:         budget.Proportional,
		Cabinet: func(_ []int, o *Options) {
			o.ControlEvery, o.SampleEvery = every, every
		},
		Coord: func(_ []int, cfg *fedd.Config) { cfg.JournalPath = journal },
	})
	f.AwaitGoverned(20 * time.Second)

	most := 0
	WaitUntil(t, 60*time.Second, func() bool {
		b, err := os.ReadFile(journal + ".log")
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, bytes.Count(b, []byte("\n")))
		return f.Coord().Status().JournalAppends > 120
	}, "the coordinator never committed 120 changed cycles: %+v", f.Coord().Status())
	if most > 60 {
		t.Errorf("the coordinator's journal log reached %d entries, want at most 60", most)
	}
	if st := f.Coord().Status(); st.JournalWrites < 2 {
		t.Errorf("%d journal writes over %d appends, want the store's own compaction at least every 60",
			st.JournalWrites, st.JournalAppends)
	}
}
