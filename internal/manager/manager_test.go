package manager

import (
	"errors"
	"testing"

	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

// fakeActuator records commands and optionally refuses certain nodes.
type fakeActuator struct {
	levels map[node.ID]int
	refuse map[node.ID]bool
}

func newFake() *fakeActuator {
	return &fakeActuator{levels: map[node.ID]int{}, refuse: map[node.ID]bool{}}
}

func (f *fakeActuator) SetNodeLevel(id node.ID, level int) error {
	if f.refuse[id] {
		return errors.New("refused")
	}
	f.levels[id] = level
	return nil
}

// mkSnap builds a snapshot with n candidate nodes at the given level, all
// running one job.
func mkSnap(n, level int) *policy.Snapshot {
	s := &policy.Snapshot{P: 0, PL: units.KW(31)}
	js := policy.JobState{ID: 1}
	for i := 0; i < n; i++ {
		ns := policy.NodeState{
			ID: node.ID(i), Level: level, MaxLevel: 9,
			AtLowest: level == 0,
			Est:      300, EstLower: 285, PrevEst: 295, Job: 1,
		}
		s.Nodes = append(s.Nodes, ns)
		js.Nodes = append(js.Nodes, i)
		js.Power += ns.Est
		js.PrevPower += ns.PrevEst
		js.Saving += 15
	}
	s.Jobs = []policy.JobState{js}
	return s
}

func thr() power.Thresholds { return power.Thresholds{PL: units.KW(31), PH: units.KW(34)} }

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Tg: 0, Policy: policy.MPC{}}); err == nil {
		t.Error("Tg=0 accepted")
	}
	if _, err := New(Config{Tg: 10}); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestYellowDegradesTargets(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.MPC{}})
	act := newFake()
	snap := mkSnap(4, 9)
	st, actions, err := m.Cycle(units.KW(32), thr(), snap, act)
	if err != nil {
		t.Fatal(err)
	}
	if st != power.Yellow {
		t.Fatalf("state = %v", st)
	}
	if len(actions) != 4 {
		t.Fatalf("actions = %v, want 4 degrades", actions)
	}
	for _, a := range actions {
		if a.Level != 8 {
			t.Errorf("degrade to level %d, want 8 (one-level cut)", a.Level)
		}
	}
	if m.Degraded() != 4 {
		t.Errorf("A_degraded = %d", m.Degraded())
	}
	if s := m.Stats(); s.YellowCycles != 1 || s.DegradeOps != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGreenBelowTgDoesNothing(t *testing.T) {
	m, _ := New(Config{Tg: 3, Policy: policy.MPC{}})
	act := newFake()
	// Degrade first so there is something to restore.
	m.Cycle(units.KW(32), thr(), mkSnap(2, 9), act)
	// Two green cycles: not steady yet.
	for i := 0; i < 2; i++ {
		_, actions, _ := m.Cycle(units.KW(28), thr(), mkSnap(2, 8), act)
		if len(actions) != 0 {
			t.Fatalf("restored before Tg: %v", actions)
		}
	}
	// Third green cycle reaches Tg: restore one level.
	_, actions, _ := m.Cycle(units.KW(28), thr(), mkSnap(2, 8), act)
	if len(actions) != 2 {
		t.Fatalf("actions = %v, want 2 restores", actions)
	}
	for _, a := range actions {
		if a.Level != 9 {
			t.Errorf("restore to %d, want 9", a.Level)
		}
	}
	// Nodes reached top: A_degraded empties.
	if m.Degraded() != 0 {
		t.Errorf("A_degraded = %d after full restore", m.Degraded())
	}
}

func TestYellowResetsGreenTimer(t *testing.T) {
	m, _ := New(Config{Tg: 2, Policy: policy.MPC{}})
	act := newFake()
	m.Cycle(units.KW(32), thr(), mkSnap(1, 9), act) // degrade
	m.Cycle(units.KW(28), thr(), mkSnap(1, 8), act) // green 1
	m.Cycle(units.KW(32), thr(), mkSnap(1, 8), act) // yellow: timer reset
	_, actions, _ := m.Cycle(units.KW(28), thr(), mkSnap(1, 7), act)
	if len(actions) != 0 {
		t.Errorf("restored after only one green cycle post-yellow: %v", actions)
	}
}

func TestRedFloorsAllCandidates(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.None{}}) // policy irrelevant in red
	act := newFake()
	snap := mkSnap(5, 6)
	st, actions, _ := m.Cycle(units.KW(35), thr(), snap, act)
	if st != power.Red {
		t.Fatalf("state = %v", st)
	}
	if len(actions) != 5 {
		t.Fatalf("actions = %d, want all 5 floored", len(actions))
	}
	for _, a := range actions {
		if a.Level != 0 {
			t.Errorf("red sent node %d to level %d, want 0", a.Node, a.Level)
		}
	}
	if m.Degraded() != 5 {
		t.Errorf("A_degraded = %d, want all candidates", m.Degraded())
	}
	if s := m.Stats(); s.RedEntries != 1 || s.RedCycles != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRedEntryCountedOncePerExcursion(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.None{}})
	act := newFake()
	m.Cycle(units.KW(35), thr(), mkSnap(1, 9), act) // enter red
	m.Cycle(units.KW(35), thr(), mkSnap(1, 0), act) // stay red
	m.Cycle(units.KW(28), thr(), mkSnap(1, 0), act) // green
	m.Cycle(units.KW(35), thr(), mkSnap(1, 0), act) // re-enter red
	if s := m.Stats(); s.RedEntries != 2 {
		t.Errorf("red entries = %d, want 2", s.RedEntries)
	}
}

func TestRedSkipsAlreadyFloored(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.None{}})
	act := newFake()
	_, actions, _ := m.Cycle(units.KW(35), thr(), mkSnap(3, 0), act)
	if len(actions) != 0 {
		t.Errorf("red re-floored already-floored nodes: %v", actions)
	}
	// They still join A_degraded for later restore.
	if m.Degraded() != 3 {
		t.Errorf("A_degraded = %d", m.Degraded())
	}
}

func TestYellowSkipsIdleAndFloorNodes(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.All{}})
	act := newFake()
	snap := mkSnap(3, 9)
	snap.Nodes[0].Idle = true
	snap.Nodes[1].AtLowest = true
	snap.Nodes[1].Level = 0
	_, actions, _ := m.Cycle(units.KW(32), thr(), snap, act)
	if len(actions) != 1 || actions[0].Node != 2 {
		t.Errorf("actions = %v, want only node 2", actions)
	}
}

func TestActuationErrorDoesNotAbortCycle(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.MPC{}})
	act := newFake()
	act.refuse[1] = true
	_, actions, err := m.Cycle(units.KW(32), thr(), mkSnap(3, 9), act)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 2 {
		t.Errorf("actions = %v, want 2 (refused node skipped)", actions)
	}
	if m.Degraded() != 2 {
		t.Errorf("refused node entered A_degraded")
	}
}

func TestRestoreKeepsMissingNodes(t *testing.T) {
	// A node that temporarily vanishes from the snapshot (lost agent
	// sample) is skipped but stays in A_degraded, and is restored when
	// its readings return — a single dropped sample must not orphan a
	// degraded node at a low level.
	m, _ := New(Config{Tg: 1, Policy: policy.MPC{}})
	act := newFake()
	m.Cycle(units.KW(32), thr(), mkSnap(2, 9), act) // degrade nodes 0,1
	snapMissing := mkSnap(1, 8)                     // only node 0 reports
	_, actions, _ := m.Cycle(units.KW(28), thr(), snapMissing, act)
	if len(actions) != 1 || actions[0].Node != 0 {
		t.Errorf("actions = %v, want restore of node 0 only", actions)
	}
	if m.Degraded() != 1 {
		t.Fatalf("A_degraded = %d, want node 1 retained", m.Degraded())
	}
	// Node 1 reappears still at level 8: it must now be restored.
	_, actions, _ = m.Cycle(units.KW(28), thr(), mkSnap(2, 8), act)
	restored := false
	for _, a := range actions {
		if a.Node == 1 && a.Level == 9 {
			restored = true
		}
	}
	if !restored {
		t.Errorf("returning node not restored: %v", actions)
	}
}

func TestRestoreRetainsAbsentNodeAcrossManyCycles(t *testing.T) {
	// Stronger skip-and-retain: a degraded node that stays absent from
	// the snapshot for many steady-green restore rounds (several
	// multiples of Tg) must neither be forgotten nor commanded, and must
	// be lifted back to its top level once its readings return.
	const tg = 3
	m, _ := New(Config{Tg: tg, Policy: policy.MPC{}})
	act := newFake()
	m.Cycle(units.KW(32), thr(), mkSnap(2, 9), act) // degrade nodes 0,1 to 8

	// Node 1 goes dark. Node 0 reports at level 8 and is restored to top
	// on the first steady-green round; after that only node 1 remains,
	// and every subsequent round must skip it without dropping it.
	snapMissing := mkSnap(1, 8)
	for cycle := 0; cycle < 4*tg; cycle++ {
		_, actions, err := m.Cycle(units.KW(28), thr(), snapMissing, act)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range actions {
			if a.Node == 1 {
				t.Fatalf("cycle %d: absent node commanded: %+v", cycle, a)
			}
		}
		if m.Degraded() < 1 {
			t.Fatalf("cycle %d: absent node dropped from A_degraded", cycle)
		}
	}
	if got := m.Stats().RestoreOps; got != 1 {
		t.Errorf("RestoreOps = %d, want 1 (node 0 only)", got)
	}

	// Node 1 reappears still at level 8: the next steady-green round
	// restores it to top and A_degraded finally empties.
	full := mkSnap(2, 8)
	full.Nodes = full.Nodes[1:] // drop node 0 (already at top, not degraded)
	_, actions, _ := m.Cycle(units.KW(28), thr(), full, act)
	if len(actions) != 1 || actions[0].Node != 1 || actions[0].Level != 9 {
		t.Fatalf("actions = %v, want node 1 restored to 9", actions)
	}
	if m.Degraded() != 0 {
		t.Errorf("A_degraded = %d after return, want 0", m.Degraded())
	}
	if lvl := act.levels[1]; lvl != 9 {
		t.Errorf("actuated level = %d, want 9", lvl)
	}
}

func TestInvalidThresholdsRejected(t *testing.T) {
	m, _ := New(Config{Tg: 10, Policy: policy.MPC{}})
	bad := power.Thresholds{PL: units.KW(34), PH: units.KW(31)}
	if _, _, err := m.Cycle(units.KW(32), bad, mkSnap(1, 9), newFake()); err == nil {
		t.Error("inverted thresholds accepted")
	}
}

func TestConvergenceToGreenUnderConstantLoad(t *testing.T) {
	// Scenario: power scales with aggregate level; repeated yellow cycles
	// must walk the system down until it classifies green.
	m, _ := New(Config{Tg: 10, Policy: policy.MPC{}})
	act := newFake()
	levels := []int{9, 9, 9, 9}
	powerOf := func() units.Watts {
		sum := 0.0
		for _, l := range levels {
			sum += 200 + 12*float64(l)
		}
		return units.Watts(sum * 26) // scale into the 31-34 kW band
	}
	th := thr()
	for cycle := 0; cycle < 50; cycle++ {
		p := powerOf()
		if th.Classify(p) == power.Green {
			return // converged
		}
		snap := &policy.Snapshot{P: p, PL: th.PL}
		js := policy.JobState{ID: 1}
		for i, l := range levels {
			ns := policy.NodeState{
				ID: node.ID(i), Level: l, MaxLevel: 9, AtLowest: l == 0,
				Est: units.Watts(200 + 12*float64(l)), EstLower: units.Watts(200 + 12*float64(l-1)),
				Job: 1,
			}
			if l == 0 {
				ns.EstLower = ns.Est
			}
			snap.Nodes = append(snap.Nodes, ns)
			js.Nodes = append(js.Nodes, i)
			js.Power += ns.Est
		}
		snap.Jobs = []policy.JobState{js}
		_, actions, err := m.Cycle(p, th, snap, act)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range actions {
			levels[a.Node] = a.Level
		}
	}
	t.Fatalf("never converged to green; final power %v", powerOf())
}
