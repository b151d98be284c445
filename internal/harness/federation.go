package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/units"
)

// Federated topology: a fedd coordinator over its own fault network,
// plus one full harness Cluster (managerd + agents over their own fault
// network) per cabinet, each cabinet manager dialing the coordinator as
// a governed cabinet. Partitioning cabinet c from the coordinator is
// CoordNet.Partition(c, ...) — reports and grants go silent in either
// direction while the cabinet's own agent plane keeps running, which is
// exactly the failure the two-tier dead-man layers exist for.

// FedOptions parametrises a federation.
type FedOptions struct {
	// Cabinets is the number of cabinet clusters (default 3).
	Cabinets int
	// AgentsPerCabinet is each cabinet's agent count (default 4).
	AgentsPerCabinet int
	// Budget is the coordinator's global budget; PH its global upper
	// threshold (defaults: a generous megawatt band that never caps).
	Budget units.Watts
	PH     units.Watts
	// Division selects the coordinator's budget division (default
	// Proportional).
	Division budget.Division
	// CoordEvery is the coordinator cycle period (default 50ms);
	// StaleAfter its lost-cabinet threshold (default 3 cycles).
	CoordEvery time.Duration
	StaleAfter time.Duration
	// Breaker caps any single cabinet's grant; FloorW is the per-cabinet
	// weighting floor and lost-cabinet reserve. Zero disables each.
	Breaker units.Watts
	FloorW  units.Watts
	// BudgetGrace and FailsafeBudget arm each cabinet manager's
	// coordinator dead-man switch (managerd.Config); zero values take
	// the managerd defaults.
	BudgetGrace    int
	FailsafeBudget power.Thresholds
	// Seed drives every fault network (offset per cabinet).
	Seed int64
	// CabOpts, when non-nil, mutates each cabinet's Options just before
	// its cluster boots (fault profiles, lease paths, thresholds...).
	CabOpts func(cab int, o *Options)
	// CoordOpts, when non-nil, mutates the coordinator's config just
	// before it boots (lease path, journal, codec pinning...). The
	// Listener field is owned by the harness.
	CoordOpts func(cfg *fedd.Config)
}

func (o *FedOptions) fill() {
	if o.Cabinets <= 0 {
		o.Cabinets = 3
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
	if o.CoordEvery <= 0 {
		o.CoordEvery = 50 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Federation is a running two-tier cluster.
type Federation struct {
	Opt      FedOptions
	Coord    *fedd.Server
	CoordNet *faultnet.Network
	Cabinets []*Cluster

	t        testing.TB
	coordCfg fedd.Config // as booted, minus the listener
	standbys []*CoordStandbyHandle
	mu       sync.Mutex
	// recs[c] is cabinet c's Algorithm-1 cycle trace, collected through
	// managerd's RecordCycle seam for scenario.CheckAlgorithmOne.
	recs [][]scenario.CycleRecord
}

// StartFederation boots a coordinator and Opt.Cabinets governed cabinet
// clusters, registering all cleanup on t (cabinets stop before the
// coordinator).
func StartFederation(t testing.TB, opt FedOptions) *Federation {
	t.Helper()
	opt.fill()

	coordNet := faultnet.New(opt.Seed + 7777)
	coordCfg := fedd.Config{
		Budget:       opt.Budget,
		PH:           opt.PH,
		Division:     opt.Division,
		ControlEvery: opt.CoordEvery,
		StaleAfter:   opt.StaleAfter,
		Breaker:      opt.Breaker,
		FloorW:       opt.FloorW,
	}
	if opt.CoordOpts != nil {
		opt.CoordOpts(&coordCfg)
	}
	bootCfg := coordCfg
	bootCfg.Listener = coordNet.Listener()
	coord, err := daemon.Boot(fedd.New(bootCfg))
	if err != nil {
		coordNet.Close()
		t.Fatalf("harness: fedd: %v", err)
	}
	f := &Federation{
		Opt: opt, Coord: coord, CoordNet: coordNet,
		t:        t,
		coordCfg: coordCfg,
		recs:     make([][]scenario.CycleRecord, opt.Cabinets),
	}
	t.Cleanup(func() {
		for _, h := range f.standbys {
			h.Stop()
		}
		f.Coord.Stop()
		coordNet.Close()
	})

	for cab := 0; cab < opt.Cabinets; cab++ {
		cab := cab
		o := Options{
			Agents:         opt.AgentsPerCabinet,
			Seed:           opt.Seed + int64(cab)*1000,
			Cabinet:        cab,
			BudgetGrace:    opt.BudgetGrace,
			FailsafeBudget: opt.FailsafeBudget,
			CoordinatorDial: func() (net.Conn, error) {
				return coordNet.Dial(context.Background(), uint64(cab))
			},
			RecordCycle: func(rec scenario.CycleRecord) {
				f.mu.Lock()
				f.recs[cab] = append(f.recs[cab], rec)
				f.mu.Unlock()
			},
		}
		if opt.CabOpts != nil {
			opt.CabOpts(cab, &o)
		}
		c := Start(t, o)
		f.Cabinets = append(f.Cabinets, c)
		// Bring the cabinet to steady state — agents registered, first
		// grant applied — before booting the next one. Each cluster's
		// goroutine-leak baseline is snapshotted at its Start, so the
		// previous cabinets' asynchronously-spawned connection goroutines
		// must all exist by then or teardown misreads them as leaks.
		c.AwaitAgents(o.Agents, 30*time.Second)
		WaitUntil(t, 30*time.Second, func() bool {
			return c.Status().Governed
		}, "cabinet %d never went governed", cab)
	}
	return f
}

// Records returns a copy of cabinet cab's Algorithm-1 cycle trace so far.
func (f *Federation) Records(cab int) []scenario.CycleRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]scenario.CycleRecord, len(f.recs[cab]))
	copy(out, f.recs[cab])
	return out
}

// AwaitGoverned waits until every cabinet manager reports running under
// a live coordinator grant and the coordinator sees every cabinet live.
func (f *Federation) AwaitGoverned(timeout time.Duration) {
	f.t.Helper()
	WaitUntil(f.t, timeout, func() bool {
		for _, c := range f.Cabinets {
			if !c.Status().Governed {
				return false
			}
		}
		live := 0
		for _, cs := range f.Coord.CabinetStates() {
			if cs.Live {
				live++
			}
		}
		return live == f.Opt.Cabinets
	}, "federation never fully governed (%d cabinets)", f.Opt.Cabinets)
}

// PartitionCabinet blackholes cabinet cab's coordinator link in both
// directions: reports stop arriving and grants stop flowing, with
// neither side seeing an error — pure silence, the dead-man case.
func (f *Federation) PartitionCabinet(cab int) {
	f.CoordNet.Partition(uint64(cab), true, true)
}

// HealCabinet lifts the partition. The cabinet's federation client is
// usually still blocked on the dead link; the next report write or
// redial re-subscribes it.
func (f *Federation) HealCabinet(cab int) {
	f.CoordNet.Heal(uint64(cab))
}

// StopCoordinator kills the coordinator process outright (its listener
// closes; cabinet sessions die). Cabinets keep their own agent planes
// running and, past BudgetGrace, floor themselves to the failsafe band.
func (f *Federation) StopCoordinator() {
	f.Coord.Stop()
}

// RestartCoordinator boots a fresh coordinator over the same
// configuration and fault network — the cold-restart case. Cabinet
// federation clients redial under their capped backoff and resubscribe;
// the next coordinator cycle re-grants. Rebinds f.Coord.
func (f *Federation) RestartCoordinator() *fedd.Server {
	f.t.Helper()
	cfg := f.coordCfg
	cfg.Listener = f.CoordNet.Listener()
	coord, err := daemon.Boot(fedd.New(cfg))
	if err != nil {
		f.t.Fatalf("harness: restarted fedd: %v", err)
	}
	f.Coord = coord
	return coord
}

// CoordStandbyHandle tracks one warm coordinator standby (see
// StandbyHandle).
type CoordStandbyHandle = daemon.WarmStandby[*fedd.Server]

// StartCoordStandby boots a warm coordinator standby: a journal
// follower over the coordinator fault network plus a lease watcher
// that, on leader death, starts a replacement coordinator over the
// replicated grant journal at a fenced-off higher epoch. Requires the
// coordinator to have been started with a Lease (via CoordOpts).
// missBudget ≤ 0 takes the replica default. The federation owns the
// standby; cleanup tears it down.
func (f *Federation) StartCoordStandby(missBudget int) *CoordStandbyHandle {
	t := f.t
	t.Helper()
	if f.coordCfg.Lease == nil {
		t.Fatal("harness: StartCoordStandby needs a coordinator Lease (set via CoordOpts)")
	}
	holder := fmt.Sprintf("coord-standby-%d", len(f.standbys)+1)
	h := startStandby(t, f.CoordNet, len(f.standbys), f.coordCfg.Lease, missBudget, holder, func(p replica.Promotion) (*fedd.Server, error) {
		cfg := f.coordCfg
		cfg.Listener = f.CoordNet.Listener()
		cfg.JournalPath = "" // the replicated store IS the journal
		cfg.Journal = p.Store
		cfg.Epoch = p.Epoch
		cfg.LeaseHolder = holder
		cfg.TakeoverMicros = p.Leaderless.Microseconds()
		return daemon.Boot(fedd.New(cfg))
	})
	f.standbys = append(f.standbys, h)
	return h
}

// AwaitCoordTakeover blocks until h has promoted a replacement
// coordinator (or fails the test after timeout), rebinds f.Coord to it,
// and returns it. The old coordinator is left to the test
// (StopCoordinator usually killed it already).
func (f *Federation) AwaitCoordTakeover(h *CoordStandbyHandle, timeout time.Duration) *fedd.Server {
	t := f.t
	t.Helper()
	srv, err := h.Await(timeout)
	if err != nil {
		t.Fatalf("harness: coordinator: %v", err)
	}
	f.Coord = srv
	return srv
}
