package tier

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/power"
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
// per-cycle question "which band do I enforce right now?". Both are
// shells over governorCore.
type Governor struct {
	cfg GovernorConfig

	conn atomic.Pointer[wire.Conn] // newest parent connection (CloseConn)

	mu   sync.Mutex
	core governorCore
}

// NewGovernor builds an unstarted governor.
func NewGovernor(cfg GovernorConfig) *Governor {
	g := &Governor{cfg: cfg}
	g.core.cfg = &g.cfg
	return g
}

// Start opens the grace window: a child that never reaches its parent
// still floors itself Grace in.
func (g *Governor) Start() {
	g.mu.Lock()
	g.core.last = time.Now()
	g.mu.Unlock()
}

// Thresholds returns the band the child's control cycle must enforce
// at now (governorCore.band), firing OnFloor once per floor transition.
func (g *Governor) Thresholds(now time.Time) power.Thresholds {
	g.mu.Lock()
	defer g.mu.Unlock()
	thr, floors := g.core.band(now)
	if floors && g.cfg.OnFloor != nil {
		g.cfg.OnFloor()
	}
	return thr
}

// Governed reports whether a grant is in force (first grant to floor).
func (g *Governor) Governed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core.haveGrant && !g.core.floored
}

// NoteSense records the cycle's sensed power and demand for reporting.
func (g *Governor) NoteSense(p, demand float64) {
	g.mu.Lock()
	g.core.lastP, g.core.lastD = p, demand
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

// reportEnvelope is one upward cab_report (governorCore.report). The
// snapshot is taken outside the lock: it may ask Thresholds.
func (g *Governor) reportEnvelope() wire.Envelope {
	snap := g.cfg.Snapshot()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core.report(snap)
}

// applyGrant is the grant event: one clock read, adopted by the core.
func (g *Governor) applyGrant(env *wire.Envelope) {
	now := time.Now()
	g.mu.Lock()
	adopted := g.core.grant(env, now)
	g.mu.Unlock()
	if adopted && g.cfg.OnGrant != nil {
		g.cfg.OnGrant()
	}
}
