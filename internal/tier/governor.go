package tier

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/wire"
)

// GovernorConfig parametrises the child half of the seam.
type GovernorConfig struct {
	// ParentAddrs is the parent grantor's HA group, dialled in rotation
	// (wire.Group.Rotate); ignored when Dial is set.
	ParentAddrs wire.Group
	// Dial, when non-nil, opens the parent connection (tests hand a
	// fault-injecting in-memory dialer here).
	Dial func() (net.Conn, error)
	// Child is this governor's index under its parent — the Node field
	// of every upward cab_report.
	Child int
	// ReportEvery is the upward reporting period.
	ReportEvery time.Duration
	// Grace is the dead-man window: after this much silence from the
	// parent (no grant since the newest of Start and the last grant) the
	// governor floors itself to Failsafe.
	Grace time.Duration
	// Failsafe is the band enforced while floored.
	Failsafe power.Thresholds
	// Initial is the band enforced before the first grant of a young
	// connection (inside the grace window).
	Initial power.Thresholds
	// Snapshot supplies the aggregate state for each upward report; it
	// may have side effects (managerd refreshes its gauges here). Must be
	// non-nil.
	Snapshot func() Snapshot
	// OnGrant fires after each adopted grant (counter + gauge hooks).
	OnGrant func()
	// OnFloor fires once per floor transition, when the grace window
	// first expires.
	OnFloor func()
	// OnDecodeError fires per recoverable decode error on the parent
	// stream.
	OnDecodeError func()
}

// Governor is the child half: dial parent, report up, adopt grants,
// floor on silence. One Governor serves one parent edge; Run is its
// redialling session and Thresholds answers the control loop's
// per-cycle question "which band do I enforce right now?".
type Governor struct {
	cfg GovernorConfig

	conn atomic.Pointer[wire.Conn] // newest parent connection (CloseConn)

	mu        sync.Mutex
	thr       power.Thresholds
	haveGrant bool
	grantSeq  uint64
	lastGrant time.Time
	floored   bool
	lastP     float64 // last cycle's sensed aggregate power
	lastD     float64 // last cycle's uncapped demand estimate
	started   time.Time
}

// NewGovernor builds an unstarted governor.
func NewGovernor(cfg GovernorConfig) *Governor { return &Governor{cfg: cfg} }

// Start stamps the beginning of the grace window, so a child that never
// reaches its parent still floors itself Grace in.
func (g *Governor) Start() {
	g.mu.Lock()
	g.started = time.Now()
	g.mu.Unlock()
}

// Thresholds returns the band the child's control cycle must enforce
// now: the freshest grant while the parent is alive, Failsafe once it
// has been silent past the grace window, and Initial before the first
// grant of a young connection.
func (g *Governor) Thresholds(now time.Time) power.Thresholds {
	g.mu.Lock()
	defer g.mu.Unlock()
	last := g.lastGrant
	if last.IsZero() {
		last = g.started
	}
	if now.Sub(last) > g.cfg.Grace {
		if !g.floored {
			g.floored = true
			if g.cfg.OnFloor != nil {
				g.cfg.OnFloor()
			}
		}
		return g.cfg.Failsafe
	}
	if g.haveGrant {
		return g.thr
	}
	return g.cfg.Initial
}

// Governed reports whether the newest grant is in force (true between
// the first grant and a floor transition).
func (g *Governor) Governed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.haveGrant && !g.floored
}

// NoteSense records the cycle's sensed power and demand for the next
// upward report.
func (g *Governor) NoteSense(p, demand float64) {
	g.mu.Lock()
	g.lastP, g.lastD = p, demand
	g.mu.Unlock()
}

// CloseConn drops the current parent connection; Run redials.
func (g *Governor) CloseConn() {
	if c := g.conn.Load(); c != nil {
		c.Close()
	}
}

// Run is the federation loop: one wire.Link session after another —
// subscribe, report, adopt grants — until ctx ends (for a daemon: until it
// stops leading), which interrupts a dial and closes a live session alike.
func (g *Governor) Run(ctx context.Context) {
	dial := g.cfg.ParentAddrs.Rotate()
	if g.cfg.Dial != nil {
		dial = func(context.Context) (net.Conn, error) { return g.cfg.Dial() }
	}
	wire.Link{
		Dial:    dial,
		Backoff: wire.Backoff{Min: 10 * time.Millisecond, Max: 2 * time.Second},
	}.Run(ctx, g.session)
}

// session runs one subscribed connection: send the subscribe report,
// spawn a reader for grants, and keep reporting every ReportEvery until
// either side fails — a closed connection is how the link ends it.
func (g *Governor) session(conn *wire.Conn) {
	g.conn.Store(conn)
	if conn.Offer(g.reportEnvelope()) != nil {
		return
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var env wire.Envelope
		for conn.Next(&env, g.cfg.OnDecodeError) == nil {
			if env.Type == wire.KindCabBudget {
				g.applyGrant(&env)
			}
		}
	}()

	tick := time.NewTicker(g.cfg.ReportEvery)
	defer tick.Stop()
	for {
		select {
		case <-readerDone:
			return
		case <-tick.C:
			if conn.Send(g.reportEnvelope()) != nil {
				conn.Close() // fails the reader too, and its exit is ours
			}
		}
	}
}

// reportEnvelope snapshots the child's aggregate state into one
// cab_report frame: sensed power, uncapped demand, the band currently in
// force, fleet tallies, and the sequence number of the newest grant (so
// the parent sees which grant the child runs under).
func (g *Governor) reportEnvelope() wire.Envelope {
	snap := g.cfg.Snapshot()
	g.mu.Lock()
	seq := g.grantSeq
	p, d := g.lastP, g.lastD
	g.mu.Unlock()
	return wire.Envelope{
		Type: wire.KindCabReport, Node: g.cfg.Child, Seq: seq, Epoch: snap.Epoch,
		PowerW: p, DemandW: d,
		BudgetW: snap.AppliedPLW, PHW: snap.AppliedPHW,
		Agents:  snap.Agents,
		Healthy: snap.Healthy,
	}
}

// applyGrant installs a cab_budget band as the governed thresholds.
// Invalid bands (PL ≤ 0 or PH < PL — a parent bug or a torn frame) are
// ignored; the dead-man floor covers a parent that sends only garbage.
func (g *Governor) applyGrant(env *wire.Envelope) {
	thr := power.Thresholds{PL: units.Watts(env.BudgetW), PH: units.Watts(env.PHW)}
	if err := thr.Validate(); err != nil {
		return
	}
	g.mu.Lock()
	g.thr = thr
	g.grantSeq = env.Seq
	g.lastGrant = time.Now()
	g.haveGrant = true
	g.floored = false
	g.mu.Unlock()
	if g.cfg.OnGrant != nil {
		g.cfg.OnGrant()
	}
}
