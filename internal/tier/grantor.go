package tier

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/wire"
)

// GrantorConfig parametrises the parent half of the seam.
type GrantorConfig struct {
	// Division selects the budget division strategy (internal/budget).
	Division budget.Division
	// StaleAfter marks a child lost when its newest report is older than
	// this, whatever its connection: a warm-standby takeover that redials
	// within it is invisible at this tier.
	StaleAfter time.Duration
	// Breaker is the per-child circuit-breaker rating (pdist): a hard
	// cap on any single child's grant, whatever its demand. Zero means
	// unbounded.
	Breaker units.Watts
	// Floor is the per-child weighting floor handed to the division, and
	// the amount reserved from the budget for each lost child (covering
	// what it draws while floored on its local failsafe). Zero disables
	// both.
	Floor units.Watts
	// Band returns the budget band to divide this cycle. At the facility
	// root it is static configuration; at a mid-tier coordinator it is
	// the embedded Governor's Thresholds(now) — which is exactly how a
	// grant (or a dead-man floor) one tier up cascades down the tree.
	Band func(now time.Time) power.Thresholds
	// Reg receives the grantor's instruments (shared with the embedding
	// server's registry, so /metrics serves one namespace).
	Reg *obs.Registry
	// Trace, when non-nil, records staged cycle timelines.
	Trace *obs.CycleRecorder
	// OnGrant fires after each grant is sent — the HA journal hook.
	OnGrant func(child int, grantW, phW float64, seq uint64)
}

// childState is everything the grantor knows about one child, guarded by
// Grantor.mu: the core's view, with Live as the newest cycle classified
// it, and the shell's connection and gauges. The connection is written
// only by the cycle goroutine once registered (the subscribe path sends
// its frames before registering), so grant writes never race.
type childState struct {
	ChildStatus
	conn                           *wire.Conn
	lastSeen                       time.Time
	liveG, grantG, powerG, demandG *obs.Gauge
}

// ChildStatus is a point-in-time external view of one child, for tests
// and operator tooling. Cabinet is the child's index: "cabinet" is the
// protocol's word for "child", whatever the tier.
type ChildStatus struct {
	Cabinet    int
	Live       bool
	Codec      string
	PowerW     float64
	DemandW    float64
	AppliedW   float64
	GrantW     float64
	GrantPHW   float64
	GrantSeq   uint64
	AppliedSeq uint64
	Agents     int
	Healthy    int
	Epoch      uint64
}

// SeedChild pre-registers one child from recovered journal state, so a
// promoted coordinator starts its first cycle already knowing the fleet
// it inherited.
type SeedChild struct {
	Child    int
	GrantW   float64
	GrantPHW float64
	GrantSeq uint64
}

// Grantor is the parent half: child sessions in, grants out. The
// embedding server owns the listener and frame routing; Serve is handed
// each already-identified child subscription, and Cycle is driven by
// the server's control loop. Both are shells over grantorCore.
type Grantor struct {
	cfg GrantorConfig

	mu   sync.Mutex
	core grantorCore

	reportsC, grantsC, decodeErrsC, cyclesC *obs.Counter
	childrenG, liveG, grantedG, cycleUsG    *obs.Gauge
	// The roll-up, under the status reply's instrument names.
	powerG, demandG, agentsG, healthyG, lostG, plG, phG *obs.Gauge
}

// NewGrantor registers the grantor's instruments on cfg.Reg and returns an
// empty grantor. Child gauges are cab%d_* at every tier ("cabinet" is the
// protocol's word for "child"); the roll-up and the band divided go under
// the status reply's names, so the chassis answers a status probe unaided.
func NewGrantor(cfg GrantorConfig) *Grantor {
	reg := cfg.Reg
	g := &Grantor{
		cfg:         cfg,
		reportsC:    reg.Counter("reports_received"),
		grantsC:     reg.Counter("grants_sent"),
		decodeErrsC: reg.Counter("decode_errors"),
		cyclesC:     reg.Counter("cycles"),
		childrenG:   reg.Gauge("cabinets"),
		liveG:       reg.Gauge("cabinets_live"),
		grantedG:    reg.Gauge("granted_w"),
		cycleUsG:    reg.Gauge("last_cycle_micros"),
		powerG:      reg.Gauge("last_power_w"),
		demandG:     reg.Gauge("demand_w"),
		agentsG:     reg.Gauge("agents"),
		healthyG:    reg.Gauge("healthy_nodes"),
		lostG:       reg.Gauge("lost_nodes"),
		plG:         reg.Gauge("pl_w"),
		phG:         reg.Gauge("ph_w"),
	}
	g.core.cfg = &g.cfg
	return g
}

// Serve owns one child subscription: first is the already-received
// subscribe cab_report, which doubles as the hello. Once the handshake is
// answered the connection is registered and the cycle loop owns its write
// side; the rest of the stream is reports. Blocks until the connection dies.
func (g *Grantor) Serve(conn *wire.Conn, first wire.Envelope) {
	defer conn.Close()
	if first.Type != wire.KindCabReport || first.Node < 0 {
		return
	}
	codec := wire.Choose(&first)
	if conn.Confirm(codec, &wire.Envelope{Type: wire.KindHello}) != nil {
		return
	}

	g.mu.Lock()
	cs := g.childLocked(first.Node)
	old := cs.conn
	cs.conn, cs.Codec = conn, codec
	g.noteReport(cs, &first)
	g.mu.Unlock()
	if old != nil {
		// A redial (or a promoted warm standby taking the child over)
		// replaced the connection; the old one is retired silently and
		// the child never counts as lost.
		old.Close()
	}

	var env wire.Envelope
	for skipped := g.decodeErrsC.Inc; conn.Next(&env, skipped) == nil; {
		g.mu.Lock()
		if env.Type == wire.KindCabReport && cs.conn == conn {
			g.noteReport(cs, &env)
		}
		g.mu.Unlock()
	}
	g.mu.Lock()
	if cs.conn == conn {
		cs.conn = nil
	}
	g.mu.Unlock()
}

// childLocked is core.track plus a new child's gauges. Caller holds g.mu.
func (g *Grantor) childLocked(child int) *childState {
	cs, fresh := g.core.track(child)
	if fresh {
		cs.liveG = g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_live", child))
		cs.grantG = g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_grant_w", child))
		cs.powerG = g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_power_w", child))
		cs.demandG = g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_demand_w", child))
	}
	return cs
}

// noteReport is the report event: one clock read. Caller holds g.mu.
func (g *Grantor) noteReport(cs *childState, env *wire.Envelope) {
	g.core.report(cs, env, time.Now())
	g.reportsC.Inc()
}

// Seed restores children recovered from a journal, each stamped fresh with
// its last granted band: its share stays reserved (live with no
// connection) until it redials, so takeover never starves a child that was
// healthy when the old leader died. The grant sequence resumes past them
// and past epoch's base (grantorCore.resume), so every grant this leader
// sends is numbered above every grant an earlier epoch's leader sent.
func (g *Grantor) Seed(epoch uint64, children []SeedChild) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.core.resume(epoch)
	for _, sc := range children {
		if sc.Child >= 0 {
			cs := g.childLocked(sc.Child)
			g.core.seed(cs, sc, now)
			cs.grantG.Set(sc.GrantW)
		}
	}
}

// Cycle is one coordination round (grantorCore.cycle) at one clock read:
// it sends the grants, publishes the roll-up and the band divided, and
// returns power and demand — what a mid-tier coordinator reports upward.
func (g *Grantor) Cycle() (powerW, demandW float64) {
	t0 := time.Now()
	g.cyclesC.Inc()
	span := g.cfg.Trace.Begin()
	band := g.cfg.Band(t0)

	g.mu.Lock()
	grants, r := g.core.cycle(band, t0)
	for _, cs := range g.core.children {
		cs.liveG.Set(b2f(cs.Live))
		cs.powerG.Set(cs.PowerW)
		cs.demandG.Set(cs.DemandW)
		if !cs.Live {
			cs.grantG.Set(0)
		}
	}
	g.mu.Unlock()
	t1 := time.Now()
	span.Stage(obs.StageSelect, t1.Sub(t0),
		fmt.Sprintf("%v cabinets=%d lost=%d", g.cfg.Division, r.live, r.lost))

	granted, sent := 0.0, 0
	for i := range grants {
		gr := &grants[i]
		// A nil conn is a live child between connections: its share stays
		// reserved until the redial. A failed send is the reader's to notice.
		if gr.conn == nil || gr.conn.Send(wire.Envelope{
			Type: wire.KindCabBudget, Node: gr.cs.Cabinet, Seq: gr.seq, BudgetW: gr.w, PHW: gr.ph,
		}) != nil {
			continue
		}
		granted += gr.w
		sent++
		g.mu.Lock()
		g.core.sent(gr)
		gr.cs.grantG.Set(gr.w)
		g.mu.Unlock()
		if g.cfg.OnGrant != nil {
			g.cfg.OnGrant(gr.cs.Cabinet, gr.w, gr.ph, gr.seq)
		}
	}
	g.grantsC.Add(int64(sent))
	t2 := time.Now()
	span.Stage(obs.StageActuate, t2.Sub(t1), fmt.Sprintf("grants=%d", sent))
	span.End()

	g.childrenG.SetInt(int64(r.lost + r.live))
	g.liveG.SetInt(int64(r.live))
	g.grantedG.Set(granted)
	g.powerG.Set(r.powerW)
	g.demandG.Set(r.demandW)
	g.agentsG.SetInt(int64(r.agents))
	g.healthyG.SetInt(int64(r.healthy))
	g.lostG.SetInt(int64(r.lost))
	g.plG.Set(float64(band.PL))
	g.phG.Set(float64(band.PH))
	g.cycleUsG.SetInt(t2.Sub(t0).Microseconds())
	return r.powerW, r.demandW
}

// States returns a point-in-time view of every known child, sorted by
// child index.
func (g *Grantor) States() []ChildStatus {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ChildStatus, 0, len(g.core.children))
	for _, cs := range g.core.children {
		st := cs.ChildStatus
		st.Live = g.core.live(cs, now)
		out = append(out, st)
	}
	return out
}

// CloseAll closes every child connection (the embedding server's Stop
// path); Serve loops notice and deregister.
func (g *Grantor) CloseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, cs := range g.core.children {
		if cs.conn != nil {
			cs.conn.Close()
		}
	}
}
