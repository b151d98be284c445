package harness

import (
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/scenario"
)

// TestThreeTierRowPartitionMidSpike is the N-tier chaos gate: a facility
// coordinator over two row coordinators with four governed cabinets
// each, all capping under a tight global budget, then row 1's facility
// link is blackholed both ways mid-spike. The facility must mark the row
// lost and re-divide its share among the survivors; the partitioned row
// must floor itself to its failsafe band within its grace window and
// keep granting slices of that band downward, so its cabinets never
// floor; healing must restore the facility grant. Algorithm 1's
// invariants must hold inside every cabinet throughout.
func TestThreeTierRowPartitionMidSpike(t *testing.T) {
	const (
		rows      = 2
		cabsPer   = 4
		agents    = 4
		budget    = 7000 // fair row grant 3500 → 875 W/cabinet: between floored 630 and natural 1050
		ph        = 7700
		rowBrk    = 4200 // survivor row rises to this after the partition
		rowFloorW = 600
	)
	// The row failsafe divides to ≈650 W per cabinet — still above the
	// floored draw, so cabinets under the orphaned row keep a live,
	// enforceable grant the whole way through.
	rowFailsafe := power.Thresholds{PL: 2600, PH: 2700}
	tt := StartTree(t, TreeOptions{
		Tiers: []Tier{
			{Fanout: rows, Breaker: rowBrk, FloorW: rowFloorW, Grace: 3, Failsafe: rowFailsafe},
			{Fanout: cabsPer, Grace: 3},
		},
		AgentsPerCabinet: agents,
		Budget:           budget,
		PH:               ph,
	})
	tt.AwaitGoverned(30 * time.Second)

	// Mid-spike: every cabinet's grant is below its natural draw, so all
	// eight must be actively degrading before the fault lands.
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range tt.Cabinets() {
			if c.Status().DegradeOps < 1 {
				return false
			}
		}
		return true
	}, "cabinets never started capping under their grants")

	rowGrant := func(r int) float64 {
		for _, cs := range tt.Coord().CabinetStates() {
			if cs.Cabinet == r {
				return cs.GrantW
			}
		}
		return 0
	}
	preGrant := rowGrant(0)

	// Blackhole row 1 ↔ facility, both directions.
	tt.Partition(1)

	// Row side of the dead-man: facility grants stop, the grace window
	// runs out, and row 1 floors itself onto its failsafe band — visible
	// as a budget_floors strike in its registry and a Governed() drop.
	WaitUntil(t, 15*time.Second, func() bool {
		if tt.Coord(1).Governed() {
			return false
		}
		v, ok := tt.Coord(1).Obs().Value("budget_floors")
		return ok && v >= 1
	}, "partitioned row never floored to its failsafe band")

	// The orphaned row keeps granting: its cabinets' bands shrink to
	// slices of the failsafe budget but stay live grants — no cabinet
	// under row 1 ever fires its own dead-man switch.
	WaitUntil(t, 15*time.Second, func() bool {
		for _, c := range tt.Cabinets(1) {
			st := c.Status()
			if !st.Governed || st.ThresholdPLW > 700 {
				return false
			}
		}
		return true
	}, "row 1 cabinets never settled on failsafe-band slices: %+v",
		tt.Coord(1).CabinetStates())
	for cab, c := range tt.Cabinets(1) {
		if st := c.Status(); st.BudgetFloors != 0 {
			t.Errorf("row 1 cabinet %d fired its own dead-man (%d floors) despite row grants",
				cab, st.BudgetFloors)
		}
	}

	// Facility side: row 1 goes lost and its share (minus the reserved
	// floor) flows to row 0, whose grant rises from ≈3500 toward the row
	// breaker.
	WaitUntil(t, 15*time.Second, func() bool {
		var lost bool
		for _, cs := range tt.Coord().CabinetStates() {
			if cs.Cabinet == 1 {
				lost = !cs.Live
			}
		}
		return lost && rowGrant(0) >= 4000
	}, "facility never re-divided the lost row's share: %+v",
		tt.Coord().CabinetStates())
	t.Logf("row 0 grant before/after partition: %.0f W → %.0f W", preGrant, rowGrant(0))

	// The raise propagates down: row 0's cabinets see their grants rise
	// toward their natural draw.
	WaitUntil(t, 15*time.Second, func() bool {
		for _, c := range tt.Cabinets(0) {
			if c.Status().ThresholdPLW < 950 {
				return false
			}
		}
		return true
	}, "row 0 cabinets never received the re-divided budget: %+v",
		tt.Coord(0).CabinetStates())

	// Heal. The row's next report or redial resubscribes it; the facility
	// re-grants and the row leaves its failsafe band, which propagates to
	// its cabinets.
	tt.Heal(1)
	WaitUntil(t, 20*time.Second, func() bool {
		return tt.Coord(1).Governed()
	}, "healed row never rejoined governed")
	WaitUntil(t, 20*time.Second, func() bool {
		for _, cs := range tt.Coord().CabinetStates() {
			if cs.Cabinet == 1 {
				return cs.Live
			}
		}
		return false
	}, "facility never saw the healed row live again")
	WaitUntil(t, 20*time.Second, func() bool {
		for _, c := range tt.Cabinets(1) {
			if c.Status().ThresholdPLW <= 700 {
				return false
			}
		}
		return true
	}, "row 1 cabinets never left their failsafe-band slices: %+v",
		tt.Coord(1).CabinetStates())

	// Algorithm 1 must have held inside every cabinet across the entire
	// run — spike, row floor, re-division, heal and restore included.
	for r := 0; r < rows; r++ {
		for cab := 0; cab < cabsPer; cab++ {
			recs := tt.Records(r, cab)
			if len(recs) == 0 {
				t.Fatalf("row %d cabinet %d recorded no cycles", r, cab)
			}
			if err := scenario.CheckAlgorithmOne(recs, tt.Cabinet(r, cab).Opt.Tg); err != nil {
				t.Errorf("row %d cabinet %d violated Algorithm 1: %v", r, cab, err)
			}
		}
	}
}
