// Package tier is the recursive seam of the capping federation: one
// reusable pair of halves from which any level of the paper's
// facility → row → cabinet → node hierarchy is assembled.
//
// A Governor is the child side. It dials its parent, subscribes with a
// cab_report frame, streams one aggregate report per period, and adopts
// each cab_budget grant as the {P_L, P_H} band its own control loop must
// enforce. Grants double as parent heartbeats: after Grace of silence
// the Governor floors itself to a failsafe band — the same dead-man
// posture as agentd's failsafe, replayed at every tier.
//
// A Grantor is the parent side. It owns child sessions, classifies them
// live or lost by pure report freshness, re-divides its current budget
// band across the live ones through internal/budget every cycle, and
// pushes one grant per child. Lost children reserve a floor share —
// their local failsafe still draws power — and per-child breaker caps
// bound any single grant.
//
// The two halves compose: a process that embeds both a Grantor (facing
// its children) and a Governor (facing its parent) is a mid-tier
// coordinator — internal/fedd in row mode — and the same cab_report/
// cab_budget frames run unchanged on every edge. A leaf managerd embeds
// only the Governor; the facility root embeds only the Grantor. Nothing
// in either half knows which level it runs at, which is what lets the
// topology grow a tier without growing the protocol.
package tier

// Snapshot is the child-side state a Governor folds into each upward
// report: the band in force (a grant, the configured band or the failsafe),
// fleet tallies and the leadership epoch. The Governor adds its sensed
// power and demand (NoteSense) and its newest grant's sequence number.
type Snapshot struct {
	AppliedPLW float64 // lower threshold currently enforced, watts
	AppliedPHW float64 // upper threshold currently enforced, watts
	Agents     int
	Healthy    int
	Epoch      uint64
}

// b2f maps a bool onto the 0/1 gauge convention.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
