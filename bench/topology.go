package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/agentd"
	"repro/internal/budget"
	"repro/internal/faultnet"
	"repro/internal/fedd"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/wire"
)

// topology is the one declarative description every bench rig is built
// from. rows == 0 is the flat plane: one ungoverned manager over
// agentsPerCabinet agents. rows > 0 is facility → rows → cabinetsPerRow
// governed managers each.
type topology struct {
	rows             int
	cabinetsPerRow   int
	agentsPerCabinet int
	journal          bool // on-disk journal, lease file and one replica.Follower (flat only)
	sibling          bool // scripted sibling row subscribed at the facility (tree only)
}

func (t topology) cabinets() int {
	if t.rows == 0 {
		return 1
	}
	return t.rows * t.cabinetsPerRow
}

func (t topology) agents() int { return t.cabinets() * t.agentsPerCabinet }

// Fixed daemon parameters, as in bench_fanout_test.go. No control ticker
// may fire inside a run, so every period that drives a control decision is
// an hour; only the upward cab_report stream keeps a real (background)
// period.
const (
	shards        = 128
	fanoutWorkers = 4
	never         = time.Hour
	reportEvery   = 10 * time.Millisecond
	leaseEvery    = 50 * time.Millisecond
	waitLimit     = 20 * time.Second // any single wait longer than this fails the run
)

// rigConfig is a topology plus the control-law parameters of one workload.
type rigConfig struct {
	topology
	maxLevel   int
	tg         int
	thresholds power.Thresholds // a flat manager's band; a governed cabinet's pre-grant band
	budget     units.Watts      // facility P_L (tree only)
	ph         units.Watts      // facility P_H (tree only)
	refuse     int              // global index of an agent whose Apply refuses; -1 for none
	dir        string           // scratch directory for journal and lease files
}

// cabinet is one manager with its agents. recs collects the RecordCycle
// trace of the current episode; StepCycle runs on the driver goroutine, so
// nothing else touches it.
type cabinet struct {
	*harness.Cluster
	row    int
	first  int // global index of this cabinet's agent 0
	recs   []scenario.CycleRecord
	grants *obs.Counter // budget_grants: bands adopted from the row
}

// sibling is the scripted row: a bench-owned connection subscribed at the
// facility whose reported demand the driver sets, so the facility's
// division changes exactly when the driver says and no report ticker sits
// in a timed path.
type sibling struct {
	child int
	conn  *wire.Conn
	done  chan struct{}
}

type rig struct {
	cfg      rigConfig
	facility *fedd.Server
	facNet   *faultnet.Network
	rows     []*fedd.Server
	rowNets  []*faultnet.Network
	rowGrant []*obs.Counter
	cabs     []*cabinet
	sib      *sibling

	followStore  *replica.Store
	followCancel context.CancelFunc
	followDone   chan struct{}

	levels  []atomic.Int32         // applied level per global agent index
	applied atomic.Int64           // Apply callbacks that have returned
	onApply atomic.Pointer[func()] // trace hook, called inside Apply
}

// buildRig boots the topology and returns once every agent is registered
// and, in a tree, every tier runs under a grant. On error everything
// already started is torn down.
func buildRig(cfg rigConfig) (r *rig, err error) {
	r = &rig{cfg: cfg, levels: make([]atomic.Int32, cfg.agents())}
	for i := range r.levels {
		r.levels[i].Store(int32(cfg.maxLevel))
	}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	if cfg.rows == 0 {
		if err = r.addCabinet(-1, 0, nil); err != nil {
			return nil, err
		}
		if cfg.journal {
			err = r.startFollower()
		}
		return r, err
	}

	r.facNet = faultnet.New(8888)
	r.facility, err = fedd.New(fedd.Config{
		Listener: r.facNet.Listener(), Budget: cfg.budget, PH: cfg.ph,
		Division: budget.Proportional, ControlEvery: never, StaleAfter: never,
	})
	if err == nil {
		err = r.facility.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("facility: %w", err)
	}
	rowBand := cfg.budget / units.Watts(cfg.rows+1)
	for row := 0; row < cfg.rows; row++ {
		row := row
		rowNet := faultnet.New(8800 + int64(row))
		r.rowNets = append(r.rowNets, rowNet)
		srv, err := fedd.New(fedd.Config{
			Listener: rowNet.Listener(), Budget: rowBand, PH: rowBand * (cfg.ph / cfg.budget),
			Division: budget.Proportional, ControlEvery: never, StaleAfter: never,
			ParentDial: func() (net.Conn, error) {
				return r.facNet.Dial(context.Background(), uint64(row))
			},
			Row: row, ReportEvery: reportEvery,
		})
		if err == nil {
			err = srv.Start()
		}
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", row, err)
		}
		r.rows = append(r.rows, srv)
		r.rowGrant = append(r.rowGrant, srv.Obs().Counter("budget_grants"))
	}
	if cfg.sibling {
		if err = r.startSibling(cfg.rows); err != nil {
			return nil, err
		}
	}
	// Grants only flow on StepCycle, so the facility is stepped until every
	// row has subscribed and adopted one.
	children := cfg.rows
	if cfg.sibling {
		children++
	}
	err = pollUntil("rows governed", func() bool {
		if len(r.facility.CabinetStates()) < children {
			return false
		}
		r.facility.StepCycle()
		for _, row := range r.rows {
			if !row.Governed() {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for row := 0; row < cfg.rows; row++ {
		for c := 0; c < cfg.cabinetsPerRow; c++ {
			row, c := row, c
			err = r.addCabinet(row, c, func() (net.Conn, error) {
				return r.rowNets[row].Dial(context.Background(), uint64(c))
			})
			if err != nil {
				return nil, err
			}
		}
	}
	for row, srv := range r.rows {
		row, srv := row, srv
		err = pollUntil("cabinets governed", func() bool {
			if len(srv.CabinetStates()) < cfg.cabinetsPerRow {
				return false
			}
			srv.StepCycle()
			for _, cab := range r.cabs {
				if cab.row == row && cab.grants.Value() == 0 {
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// addCabinet boots one manager and its passive agents through harness.New
// and waits until all of them are registered.
func (r *rig) addCabinet(row, idx int, coordinator func() (net.Conn, error)) error {
	cfg := r.cfg
	cab := &cabinet{row: row, first: len(r.cabs) * cfg.agentsPerCabinet}
	opt := harness.Options{
		Agents: cfg.agentsPerCabinet, Seed: int64(1 + len(r.cabs)),
		ControlEvery: never, StaleAfter: never, LostAfter: 2 * never,
		CommandTimeout: 5 * time.Second,
		Tg:             cfg.tg, Thresholds: cfg.thresholds, Policy: policy.MPCC{},
		Shards: shards, FanoutWorkers: fanoutWorkers,
		Cabinet: idx, CoordinatorDial: coordinator, ReportEvery: reportEvery,
		RecordCycle: func(rec scenario.CycleRecord) { cab.recs = append(cab.recs, rec) },
		AgentSetup: func(i int, acfg *agentd.Config) {
			g := cab.first + i
			acfg.Passive = true
			acfg.MaxLevel = cfg.maxLevel
			acfg.InitialLevel = cfg.maxLevel
			acfg.Apply = func(level int) (int, error) {
				defer r.applied.Add(1)
				if hook := r.onApply.Load(); hook != nil {
					(*hook)()
				}
				if g == cfg.refuse {
					return int(r.levels[g].Load()), errors.New("bench: apply refused")
				}
				r.levels[g].Store(int32(level))
				return level, nil
			}
		},
	}
	if cfg.journal {
		opt.JournalPath = filepath.Join(cfg.dir, "journal.json")
		opt.LeasePath = filepath.Join(cfg.dir, "lease.json")
		opt.LeaseEvery = leaseEvery
	}
	hc, err := harness.New(opt)
	if err != nil {
		return err
	}
	cab.Cluster = hc
	cab.grants = hc.Server.Obs().Counter("budget_grants")
	r.cabs = append(r.cabs, cab)
	return pollUntil("agents registered", func() bool {
		return hc.Server.Status().Agents == cfg.agentsPerCabinet
	})
}

// startFollower streams the flat manager's journal into a memory store,
// as a warm standby's follower would.
func (r *rig) startFollower() error {
	cab := r.cabs[0]
	store, err := replica.Open("")
	if err != nil {
		return err
	}
	f, err := replica.NewFollower(replica.FollowerConfig{
		Store: store, Backoff: 5 * time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return cab.Net.Dial(ctx, uint64(r.cfg.agents())+1)
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.followStore, r.followCancel, r.followDone = store, cancel, make(chan struct{})
	go func() {
		defer close(r.followDone)
		_ = f.Run(ctx)
	}()
	return pollUntil("follower connected", func() bool {
		return cab.Server.Status().ReplicaConns == 1
	})
}

// startSibling subscribes the scripted row at the facility and starts the
// reader that drains its grants (faultnet pipes are unbuffered: an unread
// grant would block the facility's cycle).
func (r *rig) startSibling(child int) error {
	raw, err := r.facNet.Dial(context.Background(), uint64(child))
	if err != nil {
		return err
	}
	s := &sibling{child: child, conn: wire.NewConn(raw), done: make(chan struct{})}
	r.sib = s
	go func() {
		defer close(s.done)
		var env wire.Envelope
		for {
			if err := s.conn.RecvInto(&env); err != nil {
				return
			}
			if env.Type == wire.KindHello && env.Codec == wire.CodecBinary {
				s.conn.EnableBinary()
			}
		}
	}()
	return s.conn.Send(wire.Envelope{
		Type: wire.KindCabReport, Node: child, Codecs: []string{wire.CodecBinary},
	})
}

// report sets the sibling's demand and returns once the facility holds it.
func (r *rig) siblingReport(demandW float64) error {
	s := r.sib
	err := s.conn.Send(wire.Envelope{
		Type: wire.KindCabReport, Node: s.child, PowerW: demandW, DemandW: demandW,
	})
	if err != nil {
		return err
	}
	return spinUntil("sibling report ingested", func() bool {
		for _, cs := range r.facility.CabinetStates() {
			if cs.Cabinet == s.child {
				return cs.DemandW == demandW
			}
		}
		return false
	})
}

// stop tears the rig down leaf-first and removes its scratch directory.
func (r *rig) stop() {
	if r.followCancel != nil {
		r.followCancel()
		<-r.followDone
	}
	for _, cab := range r.cabs {
		cab.Stop()
	}
	for _, row := range r.rows {
		row.Stop()
	}
	for _, n := range r.rowNets {
		n.Close()
	}
	if r.sib != nil {
		r.sib.conn.Close()
		<-r.sib.done
	}
	if r.facility != nil {
		r.facility.Stop()
	}
	if r.facNet != nil {
		r.facNet.Close()
	}
	if r.cfg.dir != "" {
		os.RemoveAll(r.cfg.dir)
	}
}

// pollUntil waits for a set-up condition at a 200 µs period, well under
// the 1 ms that would make setup_s depend on where in a period the
// condition came true.
func pollUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
