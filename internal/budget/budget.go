// Package budget is the tier-agnostic power budget division library: one
// parent budget split across N children, where a child is a node (the
// core's two-level baseline divides a cluster budget over nodes) or a
// whole cabinet (the federation coordinator divides the global budget
// over cabinet managers). Both tiers run this one implementation, so the
// division invariants are proved once:
//
//   - the shares never sum above the parent budget;
//   - no share exceeds its child's hard cap (a cabinet's breaker rating
//     from internal/pdist, when one is set);
//   - shares are monotone in demand — raising one child's demand never
//     lowers that child's share.
//
// Three strategies are provided. Uniform ignores demand entirely (the
// static division whose waste motivates the others). Proportional gives
// each child a share proportional to its demand, floored at its static
// draw — the paper's related-work division (§I.B, after Femal et al.).
// FairShare is FastCap-style max-min fairness (see PAPERS.md): demands
// are satisfied smallest-first under a rising water level, so a few
// power-hungry children cannot starve the rest, and any surplus beyond
// total demand is spread evenly as headroom.
//
// Precedence when the per-child knobs conflict: Cap wins over Floor.
// Floor is only a weighting floor — it raises the child's demand signal,
// never its hard bound — so a child whose breaker rating sits below its
// floor is still granted at most Cap, with the overflow re-spread across
// its siblings. Degenerate inputs degrade instead of panicking
// mid-control-loop: a non-positive budget or an empty child list (every
// cabinet lost, each already excluded by the caller with its reserve
// subtracted) yields all-zero shares, a zero-demand fleet falls back to
// the equal split, and negative demands weigh zero.
package budget

import (
	"fmt"
	"math"
)

// Demand describes one child of the division: a node at the cabinet tier
// or a cabinet at the coordinator tier.
type Demand struct {
	// ID identifies the child (node ID or cabinet index); the division
	// itself never reads it, but callers index results by position and
	// keep the ID for attribution.
	ID int
	// Want is the child's estimated demand in watts — what it would draw
	// uncapped (node: model estimate at full level; cabinet: sum of its
	// nodes' full-level estimates).
	Want float64
	// Floor is the demand floor in watts (idle/static draw): Want is
	// clamped up to it, so an idle child still weighs enough to cover
	// the power it cannot shed. It is a weighting floor, not a
	// guaranteed minimum share.
	Floor float64
	// Cap is a hard upper bound on the share (a cabinet's breaker
	// rating); 0 means unbounded.
	Cap float64
}

// Division selects the split strategy.
type Division int

// Division strategies.
const (
	// Uniform gives every child total/N (water-filled over caps).
	Uniform Division = iota
	// Proportional gives each child a share proportional to its demand
	// (floored at Floor), re-spreading any cap overflow proportionally.
	Proportional
	// FairShare is max-min fair allocation: demands are met
	// smallest-first under a common water level, and surplus beyond
	// total demand is spread evenly as headroom.
	FairShare
)

// String names the strategy (the powcoordd -division flag values).
func (d Division) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Proportional:
		return "proportional"
	case FairShare:
		return "fair"
	}
	return fmt.Sprintf("division(%d)", int(d))
}

// ParseDivision maps a strategy name to its Division.
func ParseDivision(s string) (Division, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "proportional":
		return Proportional, nil
	case "fair", "fairshare":
		return FairShare, nil
	}
	return 0, fmt.Errorf("budget: unknown division %q (want uniform|proportional|fair)", s)
}

// Valid reports whether d names a known strategy.
func (d Division) Valid() bool {
	return d == Uniform || d == Proportional || d == FairShare
}

// effWant is the weighting demand actually used: Want clamped up to
// Floor, down to Cap, and never negative.
func effWant(d Demand) float64 {
	w := d.Want
	if w < d.Floor {
		w = d.Floor
	}
	if w < 0 {
		w = 0
	}
	if d.Cap > 0 && w > d.Cap {
		w = d.Cap
	}
	return w
}

// capOf returns the child's hard bound as a float, +Inf when unbounded.
func capOf(d Demand) float64 {
	if d.Cap <= 0 {
		return math.Inf(1)
	}
	return d.Cap
}

// Divide splits total across the children and returns one share per
// demand, by position. A non-positive total or an empty demand list
// yields all-zero shares; an invalid division falls back to Uniform (the
// conservative static split) rather than panicking mid-control-loop.
func Divide(total float64, div Division, ds []Demand) []float64 {
	shares := make([]float64, len(ds))
	if total <= 0 || len(ds) == 0 {
		return shares
	}
	switch div {
	case Proportional:
		divideProportional(total, ds, shares)
	case FairShare:
		divideFairShare(total, ds, shares)
	default:
		fillEqual(total, caps(ds), shares)
	}
	return shares
}

// caps extracts every child's hard bound (+Inf for unbounded).
func caps(ds []Demand) []float64 {
	c := make([]float64, len(ds))
	for i := range ds {
		c[i] = capOf(ds[i])
	}
	return c
}

// fillEqual water-fills budget equally over children bounded by bound[i]
// (already net of anything granted before this call), accumulating into
// shares. Each round spreads the remainder evenly over unsaturated
// children; it terminates because a round either saturates a child or
// distributes everything.
func fillEqual(budget float64, bound []float64, shares []float64) {
	active := make([]int, 0, len(bound))
	given := make([]float64, len(bound))
	for i, b := range bound {
		if b > 0 {
			active = append(active, i)
		}
	}
	remaining := budget
	for remaining > 1e-9 && len(active) > 0 {
		per := remaining / float64(len(active))
		next := active[:0]
		saturated := false
		for _, i := range active {
			add := per
			if h := bound[i] - given[i]; add >= h {
				add = h
				saturated = true
			} else {
				next = append(next, i)
			}
			given[i] += add
			remaining -= add
		}
		active = next
		if !saturated {
			break
		}
	}
	for i := range shares {
		shares[i] += given[i]
	}
}

// divideProportional spreads total in proportion to effective demand,
// re-spreading cap overflow over the unsaturated children each round.
// A zero-demand round degrades to the equal split of what is left.
func divideProportional(total float64, ds []Demand, shares []float64) {
	active := make([]int, len(ds))
	for i := range ds {
		active[i] = i
	}
	remaining := total
	for remaining > 1e-9 && len(active) > 0 {
		sumW := 0.0
		for _, i := range active {
			sumW += effWant(ds[i])
		}
		if sumW <= 0 {
			// No demand signal left: equal-split the remainder over the
			// remaining headroom.
			bound := make([]float64, len(ds))
			for _, i := range active {
				bound[i] = capOf(ds[i]) - shares[i]
			}
			fillEqual(remaining, bound, shares)
			return
		}
		budgetThisRound := remaining
		next := active[:0]
		saturated := false
		for _, i := range active {
			add := budgetThisRound * effWant(ds[i]) / sumW
			if h := capOf(ds[i]) - shares[i]; add >= h {
				add = h
				saturated = true
			} else {
				next = append(next, i)
			}
			shares[i] += add
			remaining -= add
		}
		active = next
		if !saturated {
			return
		}
	}
}

// divideFairShare is max-min fairness on effective demand: a common
// water level rises until the budget is spent, so small demands are met
// in full before large ones split what is left. Surplus beyond total
// demand is spread evenly as headroom (a cap is an upper bound, not a
// target — granting a cabinet more than it asks for costs nothing and
// saves a re-division when its load spikes).
func divideFairShare(total float64, ds []Demand, shares []float64) {
	// Phase 1: satisfy demands smallest-first under the rising level.
	type child struct {
		i    int
		want float64
	}
	order := make([]child, len(ds))
	for i := range ds {
		order[i] = child{i, effWant(ds[i])}
	}
	// Insertion sort by want: child counts are small (cabinets) or the
	// call is off the hot path (the two-level baseline's experiments).
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && order[b].want < order[b-1].want; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	remaining := total
	for k, c := range order {
		left := len(order) - k
		fair := remaining / float64(left)
		give := c.want
		if give > fair {
			give = fair
		}
		shares[c.i] = give
		remaining -= give
	}
	if remaining <= 1e-9 {
		return
	}
	// Phase 2: spread the surplus evenly as headroom, respecting caps.
	bound := make([]float64, len(ds))
	for i := range ds {
		bound[i] = capOf(ds[i]) - shares[i]
	}
	fillEqual(remaining, bound, shares)
}
