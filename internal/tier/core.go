package tier

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/budget"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/wire"
)

// The federation's two deterministic cores take one event at a time — a
// report, a grant, a cycle or a tick — with its instant as an argument, and
// return what it decides. They read no clock, touch no socket, take no lock
// and publish nothing: the shells (Grantor, Governor) own all of that, read
// the clock once per event and call these, as the tests do on virtual time.

// grantorCore is the Grantor's deterministic half: what every child last
// reported, the grant in force at each, and the division.
type grantorCore struct {
	cfg      *GrantorConfig
	children []*childState // by child index: the division's fixed order
	seq      uint64        // newest grant sequence number issued or seeded

	grants  []grant // cycle scratch, reused
	demands []budget.Demand
}

// grant is one child's share of a division, numbered for sending.
type grant struct {
	cs    *childState
	conn  *wire.Conn // the shell's, carried through untouched
	w, ph float64
	seq   uint64
}

// rollup is a cycle's view of the fleet below, as published and reported up.
type rollup struct {
	powerW, demandW             float64
	agents, healthy, live, lost int
}

// track finds child i's state, creating it (fresh) on first sight.
func (c *grantorCore) track(i int) (cs *childState, fresh bool) {
	at, found := slices.BinarySearchFunc(c.children, i, func(s *childState, i int) int { return cmp.Compare(s.Cabinet, i) })
	if !found {
		c.children = slices.Insert(c.children, at, &childState{ChildStatus: ChildStatus{Cabinet: i}})
	}
	return c.children[at], !found
}

// report folds one cab_report from cs, received at now.
func (c *grantorCore) report(cs *childState, env *wire.Envelope, now time.Time) {
	cs.lastSeen = now
	cs.PowerW, cs.DemandW, cs.AppliedW = env.PowerW, env.DemandW, env.BudgetW
	cs.Agents, cs.Healthy, cs.Epoch, cs.AppliedSeq = env.Agents, env.Healthy, env.Epoch, env.Seq
}

// seed registers a journalled grant at now: fresh, so its share stays
// reserved, with the sequence resuming past it.
func (c *grantorCore) seed(cs *childState, sc SeedChild, now time.Time) {
	cs.lastSeen = now
	cs.GrantW, cs.GrantPHW, cs.GrantSeq = sc.GrantW, sc.GrantPHW, sc.GrantSeq
	c.seq = max(c.seq, sc.GrantSeq)
}

// live reports whether cs's newest report is fresh at now: a child
// mid-takeover keeps its share rather than thrashing the survivors'.
func (c *grantorCore) live(cs *childState, now time.Time) bool {
	return now.Sub(cs.lastSeen) <= c.cfg.StaleAfter
}

// cycle is one coordination round at now: classify each child live or
// lost, divide band's P_L across the live ones — reserving Floor for each
// lost child (its failsafe still draws) and capping each share at Breaker
// — and roll the fleet up: power over every child, demand as each live
// child's weight plus Floor per lost one. P_H scales by the band's ratio.
// The grants come back numbered, shrinks first: told in ascending order of
// change, the grants in force between two sends never sum above the larger
// of the old and new totals. The shell sends each and records it (sent).
func (c *grantorCore) cycle(band power.Thresholds, now time.Time) ([]grant, rollup) {
	var r rollup
	floor := float64(c.cfg.Floor)
	c.grants, c.demands = c.grants[:0], c.demands[:0]
	for _, cs := range c.children {
		cs.Live = c.live(cs, now)
		r.powerW += cs.PowerW
		r.agents += cs.Agents
		r.healthy += cs.Healthy
		if !cs.Live {
			r.lost++
			r.demandW += floor
			continue
		}
		want := cs.DemandW
		if want <= 0 {
			// A child that has not sensed yet weighs in at its current
			// draw, so a fresh subscriber is not starved before its first
			// full cycle.
			want = cs.PowerW
		}
		r.demandW += want
		c.grants = append(c.grants, grant{cs: cs, conn: cs.conn})
		c.demands = append(c.demands, budget.Demand{ID: cs.Cabinet, Want: want, Floor: floor, Cap: float64(c.cfg.Breaker)})
	}
	r.live = len(c.grants)

	shares := budget.Divide(float64(band.PL)-float64(r.lost)*floor, c.cfg.Division, c.demands)
	phRatio := float64(band.PH) / float64(band.PL)
	for i := range c.grants {
		c.grants[i].w, c.grants[i].ph = shares[i], shares[i]*phRatio
	}
	slices.SortFunc(c.grants, func(a, b grant) int {
		return cmp.Or(cmp.Compare(a.w-a.cs.GrantW, b.w-b.cs.GrantW), cmp.Compare(a.cs.Cabinet, b.cs.Cabinet))
	})
	out := c.grants[:0]
	for _, g := range c.grants {
		if g.w > 0 {
			c.seq++
			g.seq = c.seq
			out = append(out, g)
		}
	}
	return out, r
}

// sent records g as the grant in force at its child.
func (c *grantorCore) sent(g *grant) {
	g.cs.GrantW, g.cs.GrantPHW, g.cs.GrantSeq = g.w, g.ph, g.seq
}

// governorCore is the Governor's deterministic half: the grant in force
// and the dead-man window.
type governorCore struct {
	cfg                *GovernorConfig
	thr                power.Thresholds
	haveGrant, floored bool
	grantSeq           uint64
	last               time.Time // the newest grant, or the start before the first
	lastP, lastD       float64   // last cycle's sensed power and uncapped demand
}

// grant adopts a cab_budget band received at now. An invalid band (PL ≤ 0
// or PH < PL — a parent bug or a torn frame) is refused: the dead-man
// floor covers a parent that sends only garbage.
func (c *governorCore) grant(env *wire.Envelope, now time.Time) (adopted bool) {
	thr := power.Thresholds{PL: units.Watts(env.BudgetW), PH: units.Watts(env.PHW)}
	if thr.Validate() != nil {
		return false
	}
	c.thr, c.grantSeq, c.last = thr, env.Seq, now
	c.haveGrant, c.floored = true, false
	return true
}

// band is the band to enforce at now — the freshest grant while the parent
// is alive, Failsafe once it has been silent past Grace, Initial before
// the first grant — and whether this tick is the floor transition.
func (c *governorCore) band(now time.Time) (thr power.Thresholds, floors bool) {
	if now.Sub(c.last) > c.cfg.Grace {
		floors, c.floored = !c.floored, true
		return c.cfg.Failsafe, floors
	}
	if c.haveGrant {
		return c.thr, false
	}
	return c.cfg.Initial, false
}

// report is the upward cab_report for snap: sensed power, uncapped demand,
// the band in force, fleet tallies, and the sequence number of the newest
// grant (so the parent sees which grant the child runs under).
func (c *governorCore) report(snap Snapshot) wire.Envelope {
	return wire.Envelope{
		Type: wire.KindCabReport, Node: c.cfg.Child, Seq: c.grantSeq, Epoch: snap.Epoch,
		PowerW: c.lastP, DemandW: c.lastD,
		BudgetW: snap.AppliedPLW, PHW: snap.AppliedPHW,
		Agents:  snap.Agents,
		Healthy: snap.Healthy,
	}
}
