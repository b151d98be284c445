package harness

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/units"
)

// Three-tier topology: a facility coordinator over its own fault
// network, a row coordinator per row (Grantor to its cabinets, Governor
// under the facility — fedd in row mode), and a full harness Cluster
// per cabinet. Every edge speaks the same cab_report/cab_budget frames;
// partitioning row r from the facility is FacNet.Partition(r, ...) — the
// row floors itself to its failsafe band after its grace window while
// its cabinets keep receiving (smaller) grants, which is the recursive
// dead-man case the tier seam exists for.

// TierOptions parametrises a three-tier federation.
type TierOptions struct {
	// Rows is the row-coordinator count (default 2); CabinetsPerRow the
	// cabinet clusters under each (default 4); AgentsPerCabinet each
	// cabinet's agent count (default 4).
	Rows             int
	CabinetsPerRow   int
	AgentsPerCabinet int
	// Budget is the facility's global budget; PH its global upper
	// threshold (defaults: a generous megawatt band that never caps).
	Budget units.Watts
	PH     units.Watts
	// Division selects the budget division at both coordinator tiers
	// (default Proportional).
	Division budget.Division
	// FacEvery and RowEvery are the facility and row cycle periods
	// (default 50ms each); StaleAfter the lost-child threshold at both
	// tiers (default 3 cycles of the respective period).
	FacEvery   time.Duration
	RowEvery   time.Duration
	StaleAfter time.Duration
	// RowBreaker caps any single row's grant and RowFloorW is the
	// facility's per-row weighting floor and lost-row reserve; Breaker
	// and FloorW are the same knobs one tier down (row → cabinet).
	RowBreaker units.Watts
	RowFloorW  units.Watts
	Breaker    units.Watts
	FloorW     units.Watts
	// RowBudgetGrace and RowFailsafe arm each row coordinator's
	// dead-man switch under the facility; BudgetGrace and FailsafeBudget
	// arm each cabinet manager's under its row. Zero values take the
	// respective defaults.
	RowBudgetGrace int
	RowFailsafe    power.Thresholds
	BudgetGrace    int
	FailsafeBudget power.Thresholds
	// Seed drives every fault network (offset per row and cabinet).
	Seed int64
	// CabOpts, when non-nil, mutates each cabinet's Options just before
	// its cluster boots.
	CabOpts func(row, cab int, o *Options)
}

func (o *TierOptions) fill() {
	if o.Rows <= 0 {
		o.Rows = 2
	}
	if o.CabinetsPerRow <= 0 {
		o.CabinetsPerRow = 4
	}
	if o.AgentsPerCabinet <= 0 {
		o.AgentsPerCabinet = 4
	}
	if o.Budget <= 0 {
		o.Budget = 1e6
	}
	if o.PH <= 0 {
		o.PH = o.Budget * 11 / 10
	}
	if o.FacEvery <= 0 {
		o.FacEvery = 50 * time.Millisecond
	}
	if o.RowEvery <= 0 {
		o.RowEvery = 50 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ThreeTier is a running facility → rows → cabinets federation.
type ThreeTier struct {
	Opt      TierOptions
	Facility *fedd.Server
	FacNet   *faultnet.Network
	Rows     []*fedd.Server
	RowNets  []*faultnet.Network
	Cabinets [][]*Cluster

	t  testing.TB
	mu sync.Mutex
	// recs[r][c] is cabinet (r,c)'s Algorithm-1 cycle trace.
	recs [][][]scenario.CycleRecord
}

// StartThreeTier boots the full tree, stabilising tier by tier:
// facility first, then each row coordinator (waiting for its first
// facility grant), then each row's cabinets (waiting for agents and the
// first row grant). Cleanup runs leaf-first.
func StartThreeTier(t testing.TB, opt TierOptions) *ThreeTier {
	t.Helper()
	opt.fill()

	facNet := faultnet.New(opt.Seed + 8888)
	fac, err := daemon.Boot(fedd.New(fedd.Config{
		Listener:     facNet.Listener(),
		Budget:       opt.Budget,
		PH:           opt.PH,
		Division:     opt.Division,
		ControlEvery: opt.FacEvery,
		StaleAfter:   opt.StaleAfter,
		Breaker:      opt.RowBreaker,
		FloorW:       opt.RowFloorW,
	}))
	if err != nil {
		facNet.Close()
		t.Fatalf("harness: facility fedd: %v", err)
	}
	tt := &ThreeTier{
		Opt: opt, Facility: fac, FacNet: facNet,
		t:    t,
		recs: make([][][]scenario.CycleRecord, opt.Rows),
	}
	t.Cleanup(func() {
		fac.Stop()
		facNet.Close()
	})

	rowBudget := opt.Budget / units.Watts(opt.Rows)
	for r := 0; r < opt.Rows; r++ {
		r := r
		tt.recs[r] = make([][]scenario.CycleRecord, opt.CabinetsPerRow)
		rowNet := faultnet.New(opt.Seed + 8800 + int64(r))
		row, err := daemon.Boot(fedd.New(fedd.Config{
			Listener: rowNet.Listener(),
			// The static band is only the row's pre-grant and implicit
			// failsafe default; the facility's grants replace it within a
			// cycle of subscription.
			Budget:       rowBudget,
			PH:           rowBudget * (opt.PH / opt.Budget),
			Division:     opt.Division,
			ControlEvery: opt.RowEvery,
			StaleAfter:   opt.StaleAfter,
			Breaker:      opt.Breaker,
			FloorW:       opt.FloorW,
			ParentDial: func() (net.Conn, error) {
				return facNet.Dial(context.Background(), uint64(r))
			},
			Row:            r,
			BudgetGrace:    opt.RowBudgetGrace,
			FailsafeBudget: opt.RowFailsafe,
		}))
		if err != nil {
			t.Fatalf("harness: row %d fedd: %v", r, err)
		}
		tt.Rows = append(tt.Rows, row)
		tt.RowNets = append(tt.RowNets, rowNet)
		t.Cleanup(func() {
			row.Stop()
			rowNet.Close()
		})
		WaitUntil(t, 30*time.Second, func() bool {
			return row.Governed()
		}, "row %d never received a facility grant", r)

		var cabs []*Cluster
		for cab := 0; cab < opt.CabinetsPerRow; cab++ {
			cab := cab
			o := Options{
				Agents:         opt.AgentsPerCabinet,
				Seed:           opt.Seed + int64(r)*10000 + int64(cab)*1000,
				Cabinet:        cab,
				BudgetGrace:    opt.BudgetGrace,
				FailsafeBudget: opt.FailsafeBudget,
				CoordinatorDial: func() (net.Conn, error) {
					return rowNet.Dial(context.Background(), uint64(cab))
				},
				RecordCycle: func(rec scenario.CycleRecord) {
					tt.mu.Lock()
					tt.recs[r][cab] = append(tt.recs[r][cab], rec)
					tt.mu.Unlock()
				},
			}
			if opt.CabOpts != nil {
				opt.CabOpts(r, cab, &o)
			}
			c := Start(t, o)
			cabs = append(cabs, c)
			// Same sequential stabilisation as the two-tier harness: each
			// cluster's goroutine-leak baseline is snapshotted at Start.
			c.AwaitAgents(o.Agents, 30*time.Second)
			WaitUntil(t, 30*time.Second, func() bool {
				return c.Status().Governed
			}, "row %d cabinet %d never went governed", r, cab)
		}
		tt.Cabinets = append(tt.Cabinets, cabs)
	}
	return tt
}

// Records returns a copy of cabinet (row, cab)'s Algorithm-1 cycle
// trace so far.
func (tt *ThreeTier) Records(row, cab int) []scenario.CycleRecord {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	out := make([]scenario.CycleRecord, len(tt.recs[row][cab]))
	copy(out, tt.recs[row][cab])
	return out
}

// AwaitGoverned waits until every tier is granted through: each cabinet
// manager governed by its row, each row governed by the facility, and
// the facility seeing every row live.
func (tt *ThreeTier) AwaitGoverned(timeout time.Duration) {
	tt.t.Helper()
	WaitUntil(tt.t, timeout, func() bool {
		for _, row := range tt.Rows {
			if !row.Governed() {
				return false
			}
		}
		for _, cabs := range tt.Cabinets {
			for _, c := range cabs {
				if !c.Status().Governed {
					return false
				}
			}
		}
		live := 0
		for _, cs := range tt.Facility.CabinetStates() {
			if cs.Live {
				live++
			}
		}
		return live == tt.Opt.Rows
	}, "three-tier federation never fully governed (%d rows)", tt.Opt.Rows)
}

// PartitionRow blackholes row r's facility link in both directions —
// the row-coordinator-loss case: the facility re-divides around the
// row, and the row floors itself after its grace window while its
// cabinets keep being granted slices of the failsafe band.
func (tt *ThreeTier) PartitionRow(r int) {
	tt.FacNet.Partition(uint64(r), true, true)
}

// HealRow lifts the partition; the row's next report or redial
// resubscribes it and the facility's next cycle re-grants.
func (tt *ThreeTier) HealRow(r int) {
	tt.FacNet.Heal(uint64(r))
}
