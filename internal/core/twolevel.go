package core

import (
	"repro/internal/budget"
	"repro/internal/manager"
	"repro/internal/power"
	"repro/internal/units"
)

// twoLevel is the two-level power management structure the paper's
// related work describes (§I.B, after Femal et al.), the second
// comparison baseline beside the feedback controller: a cluster-level
// manager divides the budget into per-node budgets with budget.Divide —
// the engine the federation runs over cabinets — and each node enforces
// its own by choosing the highest level whose predicted draw fits. A
// static division wastes budget on idle nodes while busy nodes starve;
// the demand-proportional one recovers some of that at the cost of
// re-division churn.
type twoLevel struct {
	total    units.Watts
	division budget.Division
	model    power.Model
	stats    TwoLevelStats
}

// TwoLevelStats are the two-level baseline's counters.
type TwoLevelStats struct {
	Cycles int
	Moves  int
	// StarvedNodes counts node-cycles where even level 0 exceeded the
	// local budget (the division was infeasible for that node).
	StarvedNodes int
}

// levelFor returns the highest level l such that the node's predicted
// power at l (formula 1 with the node's current interval counters) fits
// within w. If even the lowest level exceeds w, level 0 is returned — the
// node cannot shed static power.
func levelFor(model power.Model, r manager.AgentReading, w units.Watts) int {
	for l := r.MaxLevel; l > 0; l-- {
		if model.Estimate(r.Delta, l) <= w {
			return l
		}
	}
	return 0
}

// setBudget retargets the division to a learned P_L; a non-positive
// budget is ignored.
func (c *twoLevel) setBudget(w units.Watts) {
	if w > 0 {
		c.total = w
	}
}

// cycle divides the budget over the given readings and enforces each
// node's share locally, issuing level commands through act.
func (c *twoLevel) cycle(readings []manager.AgentReading, act manager.Actuator) {
	c.stats.Cycles++
	if len(readings) == 0 {
		return
	}
	// Demand at full level, floored at idle draw.
	floor := float64(c.model.MinPower())
	demands := make([]budget.Demand, len(readings))
	for i, r := range readings {
		demands[i] = budget.Demand{
			ID:    int(r.ID),
			Want:  float64(c.model.Estimate(r.Delta, r.MaxLevel)),
			Floor: floor,
		}
	}
	shares := budget.Divide(float64(c.total), c.division, demands)
	for i, r := range readings {
		share := units.Watts(shares[i])
		target := levelFor(c.model, r, share)
		if target == 0 && c.model.Estimate(r.Delta, 0) > share {
			c.stats.StarvedNodes++
		}
		if target != r.Level {
			if err := act.SetNodeLevel(r.ID, target); err == nil {
				c.stats.Moves++
			}
		}
	}
}
