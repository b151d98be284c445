package harness

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
)

// TestTreeDepthFour is the proof that depth is data: facility → hall →
// row → cabinet, eight cabinets of two agents, built from TreeOptions
// alone. It asserts the three-tier contract one level deeper — hall 1 is
// blackholed from the facility mid-spike, must floor itself to its
// failsafe band within its grace window and keep granting slices of it
// downward, so no row or cabinet under it ever fires its own dead-man —
// and Algorithm 1 in every cabinet through the heal.
//
// Calibration: a 2-agent cabinet draws ≈ 524 W uncapped and ≈ 316 W
// floored (see chaosThresholds), so a 3500 W facility budget grants
// ≈ 437 W per cabinet and the 1300 W hall failsafe ≈ 325 W — capping
// throughout, and always an enforceable live grant.
func TestTreeDepthFour(t *testing.T) {
	if testing.Short() {
		t.Skip("depth-four chaos tree skipped in short mode")
	}
	const (
		budget = 3500
		ph     = 3850
	)
	hallFailsafe := power.Thresholds{PL: 1300, PH: 1350}
	tr := StartTree(t, TreeOptions{
		Tiers: []Tier{
			{Fanout: 2, Breaker: 2100, FloorW: 300, Grace: 3, Failsafe: hallFailsafe},
			{Fanout: 2, Grace: 3},
			{Fanout: 2, Grace: 3},
		},
		AgentsPerCabinet: 2,
		Budget:           budget,
		PH:               ph,
	})
	tr.AwaitGoverned(30 * time.Second)
	if got := len(tr.Cabinets()); got != 8 {
		t.Fatalf("depth-four tree has %d cabinets, want 8", got)
	}
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range tr.Cabinets() {
			if c.Status().DegradeOps < 1 {
				return false
			}
		}
		return true
	}, "cabinets never started capping under their grants")

	tr.Partition(1)

	hall := tr.Coord(1)
	WaitUntil(t, 15*time.Second, func() bool {
		v, ok := hall.Obs().Value("budget_floors")
		return !hall.Governed() && ok && v >= 1
	}, "partitioned hall never floored to its failsafe band")

	// The floor cascades as re-division, not as silence: two tiers down,
	// the cabinets' bands shrink to slices of the hall's failsafe.
	WaitUntil(t, 15*time.Second, func() bool {
		for _, c := range tr.Cabinets(1) {
			if st := c.Status(); !st.Governed || st.ThresholdPLW > 350 {
				return false
			}
		}
		return true
	}, "hall 1 cabinets never settled on failsafe-band slices: %+v", hall.CabinetStates())
	noFloorsBelowHall := func(when string) {
		t.Helper()
		for r := 0; r < 2; r++ {
			row := tr.Coord(1, r)
			if v, _ := row.Obs().Value("budget_floors"); !row.Governed() || v != 0 {
				t.Errorf("%s: row (1,%d) governed=%v budget_floors=%v, want governed with no floors",
					when, r, row.Governed(), v)
			}
		}
		for i, c := range tr.Cabinets(1) {
			if st := c.Status(); !st.Governed || st.BudgetFloors != 0 {
				t.Errorf("%s: cabinet %d under hall 1 governed=%v floors=%d, want governed with no floors",
					when, i, st.Governed, st.BudgetFloors)
			}
		}
	}
	noFloorsBelowHall("partitioned")

	// The facility re-divides around the lost hall; hall 0 rises toward
	// the breaker.
	WaitUntil(t, 15*time.Second, func() bool {
		states := tr.Coord().CabinetStates()
		return len(states) == 2 && !states[1].Live && states[0].GrantW >= 2000
	}, "facility never re-divided the lost hall's share: %+v", tr.Coord().CabinetStates())

	tr.Heal(1)
	WaitUntil(t, 20*time.Second, hall.Governed, "healed hall never rejoined governed")
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range tr.Cabinets(1) {
			if c.Status().ThresholdPLW <= 350 {
				return false
			}
		}
		return true
	}, "hall 1 cabinets never left their failsafe-band slices: %+v", hall.CabinetStates())
	noFloorsBelowHall("healed")

	for h := 0; h < 2; h++ {
		for r := 0; r < 2; r++ {
			for cab := 0; cab < 2; cab++ {
				recs := tr.Records(h, r, cab)
				if len(recs) == 0 {
					t.Fatalf("cabinet (%d,%d,%d) recorded no cycles", h, r, cab)
				}
				if err := scenario.CheckAlgorithmOne(recs, tr.Cabinet(h, r, cab).Opt.Tg); err != nil {
					t.Errorf("cabinet (%d,%d,%d) violated Algorithm 1: %v", h, r, cab, err)
				}
			}
		}
	}
}

// TestTreeRowCoordinatorTakeover is coordinator HA at a mid tier: row 1 of
// a facility → row → cabinet tree runs leased with a warm standby and is
// killed mid-spike. The promoted row has two jobs the root never had at
// once — redial its parent under its old child index, and seed its
// grantor from the replicated journal — and must do both fast enough that
// the takeover is invisible on both sides: the facility never marks row 1
// lost, and no cabinet under it fires its dead-man.
func TestTreeRowCoordinatorTakeover(t *testing.T) {
	const (
		rows    = 2
		cabsPer = 2
		agents  = 4
		budget  = 3600 // fair cabinet grant ≈0.9 kW: between floored 0.63 and natural 1.05
		ph      = 4000
		grace   = 40 // × 50ms: the cabinets' 2s window the takeover must land inside
	)
	lease := &replica.Lease{
		Path:  filepath.Join(t.TempDir(), "row-lease.json"),
		Every: 15 * time.Millisecond,
	}
	tr := StartTree(t, TreeOptions{
		Tiers: []Tier{
			{Fanout: rows, StaleAfter: 2 * time.Second},
			{Fanout: cabsPer, StaleAfter: 2 * time.Second,
				Grace: grace, Failsafe: power.Thresholds{PL: 100, PH: 120}},
		},
		AgentsPerCabinet: agents,
		Budget:           budget,
		PH:               ph,
		Coord: func(path []int, cfg *fedd.Config) {
			if len(path) == 1 && path[0] == 1 {
				cfg.Lease = lease
				cfg.LeaseHolder = "row-1"
			}
		},
	})
	tr.AwaitGoverned(30 * time.Second)
	row := tr.Coord(1)
	sb := row.StartStandby(4)
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range tr.Cabinets() {
			if c.Status().DegradeOps < 1 {
				return false
			}
		}
		st := row.Status()
		return st.ReplicaConns >= 1 && st.JournalAppends >= 1 && st.ReplicaLagEntries <= 1
	}, "row standby never caught up while the fleet capped")

	row1Live := func() bool {
		for _, cs := range tr.Coord().CabinetStates() {
			if cs.Cabinet == 1 {
				return cs.Live
			}
		}
		return false
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if !row1Live() {
					t.Errorf("facility saw row 1 go lost during takeover: %+v", tr.Coord().CabinetStates())
					return
				}
			}
		}
	}()

	row.Stop()
	takeover := row.AwaitTakeover(sb, grace*50*time.Millisecond)
	if got := takeover.Epoch(); got < 2 {
		t.Fatalf("promoted row epoch = %d, want >= 2", got)
	}
	// Seeded continuity: the promoted row knows every cabinet and its band
	// before any of them has redialled.
	states := takeover.CabinetStates()
	if len(states) != cabsPer {
		t.Fatalf("promoted row seeded %d cabinets, want %d: %+v", len(states), cabsPer, states)
	}
	for _, cs := range states {
		if !cs.Live || cs.GrantW <= 0 {
			t.Errorf("promoted row lost cabinet %d's reserved share: %+v", cs.Cabinet, cs)
		}
	}

	// Upward: governed by the facility again, at the fenced epoch.
	WaitUntil(t, grace*50*time.Millisecond, row.Governed,
		"promoted row never rejoined the facility")
	WaitUntil(t, 15*time.Second, func() bool {
		for _, cs := range tr.Coord().CabinetStates() {
			if cs.Cabinet == 1 {
				return cs.Live && cs.Epoch >= 2
			}
		}
		return false
	}, "facility never saw the fenced epoch: %+v", tr.Coord().CabinetStates())
	close(stop)
	<-done

	// Downward: every cabinet under the row is granted by the new leader
	// and never ran out its grace window.
	WaitUntil(t, 15*time.Second, func() bool {
		for _, cs := range row.CabinetStates() {
			if !cs.Live || cs.Codec == "" { // Codec is set once the child has really redialled
				return false
			}
		}
		return true
	}, "cabinets never redialled the promoted row: %+v", row.CabinetStates())
	for i, c := range tr.Cabinets(1) {
		if st := c.Status(); !st.Governed || st.BudgetFloors != 0 {
			t.Errorf("cabinet %d under row 1 governed=%v floors=%d after the takeover, want governed with no floors",
				i, st.Governed, st.BudgetFloors)
		}
	}
}

// fatalTB is a testing.TB whose failure can be observed: Fatal ends the
// calling goroutine and records the message instead of failing the test,
// and cleanups are collected for fatalRun to run.
type fatalTB struct {
	testing.TB
	msg      string
	cleanups []func()
}

func (f *fatalTB) Helper()           {}
func (f *fatalTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fatalTB) Fatal(args ...any) { f.msg = fmt.Sprint(args...); runtime.Goexit() }
func (f *fatalTB) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// fatalRun runs fn against a fatalTB, then its cleanups (last first), and
// returns the fatal message, empty if fn returned normally.
func fatalRun(t *testing.T, fn func(tb testing.TB)) string {
	f := &fatalTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(f)
	}()
	<-done
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
	return f.msg
}

// TestTreeBuilderEdges covers the builder's own edges: no tiers at all, a
// leaf that fails to boot or never goes governed, and paths no node has.
func TestTreeBuilderEdges(t *testing.T) {
	t.Run("no tiers is one ungoverned cluster", func(t *testing.T) {
		tr := StartTree(t, TreeOptions{AgentsPerCabinet: 3})
		tr.AwaitGoverned(time.Second) // nothing to wait for
		c := tr.Cabinet()
		if got := tr.Cabinets(); len(got) != 1 || got[0] != c {
			t.Fatalf("Cabinets() = %v, want just the root cluster", got)
		}
		ref := Options{Agents: 3}
		ref.fill()
		if c.Opt.Seed != ref.Seed || c.Opt.Cabinet != 0 || c.Opt.CoordinatorDial != nil {
			t.Errorf("root cluster options differ from Start's: seed %d cabinet %d", c.Opt.Seed, c.Opt.Cabinet)
		}
		if st := c.Status(); st.Agents != 3 || st.Governed {
			t.Errorf("root cluster: agents %d governed %v, want 3 ungoverned", st.Agents, st.Governed)
		}
	})

	inert := func(governed bool, err error) func([]int, func() (net.Conn, error)) (func(), func() bool, error) {
		return func([]int, func() (net.Conn, error)) (func(), func() bool, error) {
			return func() {}, func() bool { return governed }, err
		}
	}
	for _, tc := range []struct {
		name string
		leaf func([]int, func() (net.Conn, error)) (func(), func() bool, error)
		want []string
	}{
		{"leaf boot error names the path", inert(false, errors.New("no such rack")), []string{"[0 0]", "no such rack"}},
		{"leaf that never governs names the path", inert(false, nil), []string{"[0 0]", "never went governed"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func(d time.Duration) { treeBootWait = d }(treeBootWait)
			treeBootWait = 200 * time.Millisecond
			leak := StartLeakCheck()
			msg := fatalRun(t, func(tb testing.TB) {
				StartTree(tb, TreeOptions{Tiers: []Tier{{Fanout: 2}, {Fanout: 2}}, Leaf: tc.leaf})
			})
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("fatal message %q does not mention %q", msg, w)
				}
			}
			leak.Check(t, 5*time.Second) // both coordinators and their listeners are gone
		})
	}

	t.Run("paths no node has fail the test", func(t *testing.T) {
		tr := StartTree(t, TreeOptions{Tiers: []Tier{{Fanout: 2}}, Leaf: inert(true, nil)})
		for _, tc := range []struct {
			name string
			call func(*Tree)
			want string
		}{
			{"Coord past the fanout", func(tr *Tree) { tr.Coord(5) }, "[5]"},
			{"Cabinet below a leaf", func(tr *Tree) { tr.Cabinet(0, 3) }, "[0 3]"},
			{"Cabinet with a negative index", func(tr *Tree) { tr.Cabinet(-1) }, "[-1]"},
			{"Partition of the root", func(tr *Tree) { tr.Partition() }, "root"},
		} {
			msg := fatalRun(t, func(tb testing.TB) {
				tr.t = tb
				tc.call(tr)
			})
			tr.t = t
			if !strings.Contains(msg, tc.want) {
				t.Errorf("%s: fatal message %q does not mention %q", tc.name, msg, tc.want)
			}
		}
	})
}
