// Package fedd implements a coordinator tier of the capping federation:
// one daemon owning a power budget over a fleet of children — governed
// cabinet managers (internal/managerd), or further fedd coordinators in
// a deeper tree.
//
// Each child dials in and subscribes with a cab_report frame, then
// streams one report per control cycle: its sensed aggregate power, its
// uncapped full-level demand estimate, the band it currently enforces
// and its fleet tallies. Every coordinator cycle the daemon classifies
// children live or lost by report freshness, re-divides its budget
// across the live ones with the shared division library
// (internal/budget), and sends each live child a cab_budget grant
// naming its new band. Grants double as heartbeats: a child that stops
// receiving them floors itself locally, and a lost child's budget —
// minus a reserved floor for whatever it still draws while flooring —
// is re-divided among the survivors on the very next cycle. All of that
// machinery is internal/tier's Grantor; this package is the daemon
// around it.
//
// The seam is recursive. In row mode (ParentAddrs/ParentDial set) the
// coordinator also embeds a tier.Governor: it reports its fleet
// aggregate upward to a facility coordinator and divides whatever band
// it is granted — or its failsafe band, once the parent has been silent
// past the grace window — so a facility → row → cabinet → node tree is
// the same two frame kinds on every edge, which is the paper's pdist
// topology made control-plane structure.
//
// Coordinator HA mirrors managerd's: grants are journalled through
// internal/replica (each child's granted watts as a journal level), a
// warm standby replicates the journal over KindJournalAppend frames and
// takes over under a bumped epoch when the leadership lease goes stale.
// A promoted coordinator seeds its grantor from the journal, so every
// child that was healthy when the old leader died keeps its share
// reserved until it redials — takeover stays invisible below
// StaleAfter, and no cabinet floors.
package fedd

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/tier"
	"repro/internal/units"
	"repro/internal/wire"
)

// Config parametrises the coordinator.
type Config struct {
	// Addr is the TCP listen address for child subscriptions. Port 0
	// selects an ephemeral port (see Server.Addr).
	Addr string
	// Listener, when non-nil, is served instead of binding Addr (the
	// harness hands over a fault-injecting in-memory listener). The
	// server takes ownership and closes it on Stop.
	Listener net.Listener
	// Budget is the global lower threshold: the sum of all grants' P_L
	// never exceeds it. In row mode it is the band divided before the
	// first parent grant arrives.
	Budget units.Watts
	// PH is the global upper threshold. Each grant's P_H scales from its
	// P_L by the current band's PH/PL ratio, so child headroom mirrors
	// its parent's.
	PH units.Watts
	// Division selects the budget division strategy (internal/budget):
	// Uniform, Proportional (to reported demand) or FairShare.
	Division budget.Division
	// ControlEvery is the coordinator cycle period; every cycle
	// re-divides the budget and sends one grant per live child.
	ControlEvery time.Duration
	// StaleAfter marks a child lost when its newest report is older
	// than this. Liveness is pure report freshness — a child whose
	// connection drops but whose last report is still fresh keeps its
	// budget share through the window, so a warm-standby takeover that
	// redials within it is invisible at this tier. Zero defaults to
	// 3 coordinator cycles.
	StaleAfter time.Duration
	// Breaker is the per-child circuit-breaker rating (pdist): a hard
	// cap on any single child's grant, whatever its demand. Zero means
	// unbounded.
	Breaker units.Watts
	// FloorW is the per-child weighting floor handed to the division (a
	// child with zero demand still gets this much weight), and the
	// amount reserved from the budget for each lost child — covering
	// what it draws while floored on its local failsafe. Zero disables
	// both.
	FloorW units.Watts
	// MetricsAddr, when non-empty, serves GET /metrics and GET
	// /debug/cycles for the coordinator registry on this address.
	MetricsAddr string

	// --- row mode (mid-tier coordinator under a parent) ---

	// ParentAddrs is the facility coordinator's HA group, dialled in
	// rotation; setting it (or ParentDial) turns this coordinator into a
	// row: Grantor to its children, Governor under its parent.
	ParentAddrs wire.Group
	// ParentDial, when non-nil, opens the parent connection instead of
	// dialling ParentAddrs (tests inject fault-injecting dialers).
	ParentDial func() (net.Conn, error)
	// Row is this coordinator's child index under its parent.
	Row int
	// ReportEvery is the upward reporting period, BudgetGrace how many
	// control periods of parent silence are tolerated before the row
	// floors itself, and FailsafeBudget the band divided from then on.
	// Zero values take daemon.Chassis.Govern's defaults: the control
	// period, daemon.DefaultBudgetGrace and {Budget, PH} — a row that
	// loses its facility falls back to its static budget.
	ReportEvery    time.Duration
	BudgetGrace    int
	FailsafeBudget power.Thresholds

	// HA is the replicated grant journal and the leadership lease.
	daemon.HA
}

// Server is a running coordinator: the daemon chassis (listener,
// routing, replication, leased leadership, lifecycle) around a grantor
// and, in row mode, a governor.
type Server struct {
	*daemon.Chassis
	cfg Config

	grantor *tier.Grantor
	gov     *tier.Governor // nil unless row mode

	agentsG, healthyG *obs.Gauge // the grantor's roll-up, read for upward reports

	cycleN atomic.Int64
}

// New validates the configuration and creates an unstarted coordinator.
func New(cfg Config) (*Server, error) {
	if cfg.ControlEvery <= 0 {
		return nil, fmt.Errorf("fedd: need positive control period")
	}
	thr := power.Thresholds{PL: cfg.Budget, PH: cfg.PH}
	if err := thr.Validate(); err != nil {
		return nil, fmt.Errorf("fedd: global band: %w", err)
	}
	if !cfg.Division.Valid() {
		return nil, fmt.Errorf("fedd: unknown division %d", cfg.Division)
	}
	if cfg.Breaker < 0 || cfg.FloorW < 0 {
		return nil, fmt.Errorf("fedd: negative breaker or floor")
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.ControlEvery
	}
	rowMode := len(cfg.ParentAddrs) > 0 || cfg.ParentDial != nil
	if rowMode {
		if cfg.Row < 0 {
			return nil, fmt.Errorf("fedd: negative row index %d", cfg.Row)
		}
	}
	// The chassis opens the grant journal (a memory-only one still feeds
	// live followers); a follower write gets one control period.
	s := &Server{cfg: cfg}
	var err error
	s.Chassis, err = daemon.New(daemon.Options{
		Listen:       []daemon.Endpoint{{Addr: cfg.Addr, Listener: cfg.Listener}},
		MetricsAddr:  cfg.MetricsAddr,
		ControlEvery: cfg.ControlEvery,
		HA:           cfg.HA,
		WriteTimeout: cfg.ControlEvery,
	}, daemon.Hooks{
		Session: func(conn *wire.Conn, first *wire.Envelope, _ uint64) func() {
			return func() { s.grantor.Serve(conn, *first) }
		},
		Cycle:  s.cycle,
		Status: s.decorateStatus,
		Shed:   func() { s.grantor.CloseAll() },
	})
	if err != nil {
		return nil, fmt.Errorf("fedd: %w", err)
	}
	reg := s.Obs()
	reg.Gauge("cabinet").SetInt(int64(cfg.Row))

	s.grantor = tier.NewGrantor(tier.GrantorConfig{
		Division:   cfg.Division,
		StaleAfter: cfg.StaleAfter,
		Breaker:    cfg.Breaker,
		Floor:      cfg.FloorW,
		Band:       s.band,
		Reg:        reg,
		Trace:      s.CycleTrace(),
		OnGrant: func(child int, grantW, phW float64, seq uint64) {
			s.Journal().SetLevel(child, int(grantW+0.5))
		},
	})
	s.agentsG, s.healthyG = reg.Gauge("agents"), reg.Gauge("healthy_nodes")
	// The band reads as configured until the first cycle divides one.
	reg.Gauge("pl_w").Set(float64(cfg.Budget))
	reg.Gauge("ph_w").Set(float64(cfg.PH))

	if rowMode {
		s.gov, err = s.Govern(tier.GovernorConfig{
			ParentAddrs: cfg.ParentAddrs,
			Dial:        cfg.ParentDial,
			Child:       cfg.Row,
			ReportEvery: cfg.ReportEvery,
			Failsafe:    cfg.FailsafeBudget,
			Initial:     thr,
			Snapshot:    s.rowSnapshot,
		}, cfg.BudgetGrace)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("fedd: %w", err)
		}
	}

	// Seed the grantor from recovered journal state: each journalled
	// child keeps its last granted band reserved (live with no
	// connection) until it redials, so takeover and restart never starve
	// a child that was healthy when the previous leader stopped. Grants
	// are numbered from the chassis's epoch, so a leader's never repeat a
	// seq an earlier epoch's leader sent, even with nothing journalled yet.
	snap := s.Journal().State()
	var seeds []tier.SeedChild
	if len(snap.Levels) > 0 {
		phRatio := float64(cfg.PH) / float64(cfg.Budget)
		if snap.ThrPLW > 0 && snap.ThrPHW >= snap.ThrPLW {
			phRatio = snap.ThrPHW / snap.ThrPLW
		}
		seeds = make([]tier.SeedChild, 0, len(snap.Levels))
		for _, l := range snap.Levels {
			g := float64(l.Level)
			seeds = append(seeds, tier.SeedChild{Child: l.Node, GrantW: g, GrantPHW: g * phRatio})
		}
		s.cycleN.Store(int64(snap.SavedAtCycle))
	}
	s.grantor.Seed(s.Epoch(), seeds)
	return s, nil
}

// band is the budget the grantor divides this cycle: in row mode the
// parent's freshest grant (or the failsafe once the parent has been
// silent past the grace window), at the root the static configuration.
func (s *Server) band(now time.Time) power.Thresholds {
	if s.gov != nil {
		return s.gov.Thresholds(now)
	}
	return power.Thresholds{PL: s.cfg.Budget, PH: s.cfg.PH}
}

// rowSnapshot is one upward report's state: the band in force and the
// tallies of the last cycle's roll-up, read off the gauges it published.
func (s *Server) rowSnapshot() tier.Snapshot {
	applied := s.band(time.Now())
	return tier.Snapshot{
		AppliedPLW: float64(applied.PL),
		AppliedPHW: float64(applied.PH),
		Agents:     int(s.agentsG.Value()),
		Healthy:    int(s.healthyG.Value()),
		Epoch:      s.Epoch(),
	}
}

// Governed reports whether a row coordinator is currently dividing a
// live parent grant (false at the root, before the first grant, and
// while floored).
func (s *Server) Governed() bool { return s.gov != nil && s.gov.Governed() }

// cycle is one coordination round: the grantor divides the current band,
// grants it and rolls the fleet up, a row coordinator keeps the roll-up for
// its next upward report, and the grant journal commits (and replicates)
// the cycle's deltas.
func (s *Server) cycle() {
	p, demand := s.grantor.Cycle()
	if s.gov != nil {
		s.gov.NoteSense(p, demand)
	}
	s.Commit(int(s.cycleN.Add(1)), s.band(time.Now()), nil)
}

// StepCycle runs one coordination round synchronously — a test and
// benchmark hook, driven with a very long ControlEvery so the ticker
// stays out of the way.
func (s *Server) StepCycle() { s.cycle() }

// CabinetStates returns a point-in-time view of every known child,
// sorted by child index — at a facility coordinator, of whole rows.
func (s *Server) CabinetStates() []tier.ChildStatus { return s.grantor.States() }
