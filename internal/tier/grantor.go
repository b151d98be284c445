package tier

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// this. Liveness is pure report freshness — a child whose connection
	// drops but whose last report is still fresh keeps its budget share
	// through the window, so a warm-standby takeover that redials within
	// it is invisible at this tier.
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

// childState is everything the grantor knows about one child. All
// fields are guarded by Grantor.mu. The connection is written only by
// the cycle goroutine once registered (the subscribe path sends its
// frames before registering), so grant writes never race.
type childState struct {
	conn     *wire.Conn
	lastSeen time.Time
	codec    string // negotiated wire codec for this child's session

	powerW, demandW  float64
	appliedW, phW    float64 // band the child says it is enforcing
	agents, healthy  int
	epoch            uint64 // child's leadership epoch (HA)
	appliedSeq       uint64 // grant seq echoed in the last report
	grantW, grantPHW float64
	grantSeq         uint64

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
// the server's control loop.
type Grantor struct {
	cfg GrantorConfig

	mu       sync.Mutex
	children map[int]*childState

	seq atomic.Uint64

	reportsC    *obs.Counter
	grantsC     *obs.Counter
	decodeErrsC *obs.Counter
	cyclesC     *obs.Counter
	childrenG   *obs.Gauge
	liveG       *obs.Gauge
	grantedG    *obs.Gauge
	cycleUsG    *obs.Gauge
	// The roll-up, under the status reply's instrument names.
	powerG, demandG, agentsG, healthyG, lostG, plG, phG *obs.Gauge
}

// NewGrantor registers the grantor's instruments on cfg.Reg and returns
// an empty grantor. Child-facing gauges keep the established cab%d_*
// naming at every tier — "cabinet" is the protocol's word for "child",
// whether the child is a managerd or a whole row coordinator. The fleet
// roll-up and the band divided are published under the names of the
// status reply's fields (wire.StatusReply's obs tags), so the chassis
// answers a coordinator's status probe from them unaided.
func NewGrantor(cfg GrantorConfig) *Grantor {
	reg := cfg.Reg
	return &Grantor{
		cfg:      cfg,
		children: make(map[int]*childState),

		reportsC:    reg.Counter("reports_received"),
		grantsC:     reg.Counter("grants_sent"),
		decodeErrsC: reg.Counter("decode_errors"),
		cyclesC:     reg.Counter("cycles"),
		childrenG:   reg.Gauge("cabinets"),
		liveG:       reg.Gauge("cabinets_live"),
		grantedG:    reg.Gauge("granted_w"),
		cycleUsG:    reg.Gauge("last_cycle_micros"),

		powerG:   reg.Gauge("last_power_w"),
		demandG:  reg.Gauge("demand_w"),
		agentsG:  reg.Gauge("agents"),
		healthyG: reg.Gauge("healthy_nodes"),
		lostG:    reg.Gauge("lost_nodes"),
		plG:      reg.Gauge("pl_w"),
		phG:      reg.Gauge("ph_w"),
	}
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

	child := first.Node
	g.mu.Lock()
	cs := g.childLocked(child)
	old := cs.conn
	cs.conn = conn
	cs.codec = codec
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
		if env.Type != wire.KindCabReport {
			continue
		}
		g.mu.Lock()
		if cs.conn == conn {
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

// childLocked finds or creates the state (and per-child gauges) for one
// child index. Caller holds g.mu.
func (g *Grantor) childLocked(child int) *childState {
	cs := g.children[child]
	if cs == nil {
		cs = &childState{
			liveG:   g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_live", child)),
			grantG:  g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_grant_w", child)),
			powerG:  g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_power_w", child)),
			demandG: g.cfg.Reg.Gauge(fmt.Sprintf("cab%d_demand_w", child)),
		}
		g.children[child] = cs
	}
	return cs
}

// noteReport folds one cab_report into the child state. Caller holds
// g.mu.
func (g *Grantor) noteReport(cs *childState, env *wire.Envelope) {
	cs.lastSeen = time.Now()
	cs.powerW, cs.demandW = env.PowerW, env.DemandW
	cs.appliedW, cs.phW = env.BudgetW, env.PHW
	cs.agents, cs.healthy = env.Agents, env.Healthy
	cs.epoch = env.Epoch
	cs.appliedSeq = env.Seq
	g.reportsC.Inc()
}

// Seed restores children recovered from a journal: each is registered
// with its last granted band and stamped fresh, so its share stays
// reserved (live with a nil connection) until it redials the promoted
// coordinator — takeover never starves a child that was healthy when
// the old leader died. The grant sequence resumes past the largest
// seeded value.
func (g *Grantor) Seed(children []SeedChild) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, sc := range children {
		if sc.Child < 0 {
			continue
		}
		cs := g.childLocked(sc.Child)
		cs.lastSeen = now
		cs.grantW, cs.grantPHW, cs.grantSeq = sc.GrantW, sc.GrantPHW, sc.GrantSeq
		cs.grantG.Set(sc.GrantW)
		for {
			cur := g.seq.Load()
			if sc.GrantSeq <= cur || g.seq.CompareAndSwap(cur, sc.GrantSeq) {
				break
			}
		}
	}
}

// live reports whether cs counts as live at now. Liveness is report
// freshness alone: a child mid-takeover (connection briefly down, reports
// still fresh) keeps its share reserved rather than thrashing the
// survivors' grants. Caller holds g.mu.
func (g *Grantor) live(cs *childState, now time.Time) bool {
	return now.Sub(cs.lastSeen) <= g.cfg.StaleAfter
}

// Cycle is one coordination round: classify children live/lost by
// report freshness, divide the current band across the live ones, and
// send each its grant. The division reserves Floor for every lost child
// (its local failsafe still draws power) and caps every share at the
// breaker rating. P_H scales from P_L by the band's headroom ratio, so
// each child's yellow band is proportionally as wide as its parent's.
//
// The same walk rolls the fleet up, once: power sums every child's (a
// lost child still draws), demand is what the division weighs each live
// child by plus Floor per lost child, and the tallies count every child.
// Cycle publishes the roll-up and the band it divided under the status
// reply's names and returns power and demand — what a mid-tier
// coordinator reports upward.
func (g *Grantor) Cycle() (powerW, demandW float64) {
	t0 := time.Now()
	g.cyclesC.Inc()
	span := g.cfg.Trace.Begin()

	band := g.cfg.Band(t0)

	type target struct {
		child       int
		cs          *childState
		conn        *wire.Conn
		prev, grant float64 // the grant in force, and this division's
	}
	var (
		targets         []target
		demands         []budget.Demand
		lost            int
		agents, healthy int
	)
	g.mu.Lock()
	for child, cs := range g.children {
		live := g.live(cs, t0)
		cs.liveG.Set(b2f(live))
		cs.powerG.Set(cs.powerW)
		cs.demandG.Set(cs.demandW)
		powerW += cs.powerW
		agents += cs.agents
		healthy += cs.healthy
		if !live {
			lost++
			demandW += float64(g.cfg.Floor)
			cs.grantG.Set(0)
			continue
		}
		want := cs.demandW
		if want <= 0 {
			// A child that has not sensed yet weighs in at its current
			// draw, so a fresh subscriber is not starved before its first
			// full cycle.
			want = cs.powerW
		}
		demandW += want
		targets = append(targets, target{child: child, cs: cs, conn: cs.conn, prev: cs.grantW})
		demands = append(demands, budget.Demand{
			ID:    child,
			Want:  want,
			Floor: float64(g.cfg.Floor),
			Cap:   float64(g.cfg.Breaker),
		})
	}
	g.mu.Unlock()
	span.Stage(obs.StageSense, time.Since(t0),
		fmt.Sprintf("cabinets=%d lost=%d", len(targets), lost))

	// Divide what is left after reserving a floor for each lost child.
	tDiv := time.Now()
	total := float64(band.PL) - float64(lost)*float64(g.cfg.Floor)
	shares := budget.Divide(total, g.cfg.Division, demands)
	span.Stage(obs.StageSelect, time.Since(tDiv), g.cfg.Division.String())

	// Grants shrink before they grow: told in ascending order of change, the
	// grants in force between any two sends sum to no more than the larger
	// of the old and the new total — never a grown share on an unshrunk one.
	for i := range targets {
		targets[i].grant = shares[i]
	}
	slices.SortFunc(targets, func(a, b target) int {
		return cmp.Or(cmp.Compare(a.grant-a.prev, b.grant-b.prev), cmp.Compare(a.child, b.child))
	})

	tAct := time.Now()
	phRatio := float64(band.PH) / float64(band.PL)
	granted := 0.0
	sent := 0
	for _, tg := range targets {
		grant := tg.grant
		if grant <= 0 || tg.conn == nil {
			// A nil conn is a live child between connections (takeover in
			// flight): its share stays reserved, the grant frame waits for
			// the redial.
			continue
		}
		seq := g.seq.Add(1)
		env := wire.Envelope{
			Type: wire.KindCabBudget, Node: tg.child, Seq: seq,
			BudgetW: grant, PHW: grant * phRatio,
		}
		if err := tg.conn.Send(env); err != nil {
			// The reader side will notice and deregister; next cycle
			// treats the child as lost unless it redials first.
			continue
		}
		granted += grant
		sent++
		g.mu.Lock()
		tg.cs.grantW, tg.cs.grantPHW, tg.cs.grantSeq = grant, grant*phRatio, seq
		tg.cs.grantG.Set(grant)
		g.mu.Unlock()
		if g.cfg.OnGrant != nil {
			g.cfg.OnGrant(tg.child, grant, grant*phRatio, seq)
		}
	}
	g.grantsC.Add(int64(sent))
	span.Stage(obs.StageActuate, time.Since(tAct), fmt.Sprintf("grants=%d", sent))
	span.End()

	g.childrenG.SetInt(int64(lost + len(targets)))
	g.liveG.SetInt(int64(len(targets)))
	g.grantedG.Set(granted)
	g.powerG.Set(powerW)
	g.demandG.Set(demandW)
	g.agentsG.SetInt(int64(agents))
	g.healthyG.SetInt(int64(healthy))
	g.lostG.SetInt(int64(lost))
	g.plG.Set(float64(band.PL))
	g.phG.Set(float64(band.PH))
	g.cycleUsG.SetInt(time.Since(t0).Microseconds())
	return powerW, demandW
}

// States returns a point-in-time view of every known child, sorted by
// child index.
func (g *Grantor) States() []ChildStatus {
	now := time.Now()
	g.mu.Lock()
	out := make([]ChildStatus, 0, len(g.children))
	for child, cs := range g.children {
		out = append(out, ChildStatus{
			Cabinet:    child,
			Live:       g.live(cs, now),
			Codec:      cs.codec,
			PowerW:     cs.powerW,
			DemandW:    cs.demandW,
			AppliedW:   cs.appliedW,
			GrantW:     cs.grantW,
			GrantPHW:   cs.grantPHW,
			GrantSeq:   cs.grantSeq,
			AppliedSeq: cs.appliedSeq,
			Agents:     cs.agents,
			Healthy:    cs.healthy,
			Epoch:      cs.epoch,
		})
	}
	g.mu.Unlock()
	slices.SortFunc(out, func(a, b ChildStatus) int { return cmp.Compare(a.Cabinet, b.Cabinet) })
	return out
}

// CloseAll closes every child connection (the embedding server's Stop
// path); Serve loops notice and deregister.
func (g *Grantor) CloseAll() {
	g.mu.Lock()
	conns := make([]*wire.Conn, 0, len(g.children))
	for _, cs := range g.children {
		if cs.conn != nil {
			conns = append(conns, cs.conn)
		}
	}
	g.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
