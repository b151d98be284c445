package experiment

import (
	"fmt"

	"repro/internal/core"
)

// ControllerPoint is one control-law's outcome in the comparison study.
type ControllerPoint struct {
	Name string
	PolicyResult
	// Moves counts individual node actuations (throttle churn).
	Moves float64
	// SatLowCycles counts whole-fleet floor saturation (feedback only).
	SatLowCycles float64
}

// ControllerStudy compares the paper's Algorithm 1 (with MPC selection)
// against the related-work cluster-level feedback controller (Wang & Chen,
// §I.B) and the uncapped baseline on the same workload. The paper's
// architectural argument — selective throttling of a target subset beats
// indiscriminate coordinated control on performance at equal power safety
// — becomes measurable here.
func ControllerStudy(sc Scale) ([]ControllerPoint, error) {
	cells := []cell{
		{"none", func(c *core.Config) { c.PolicyName = "none" }},
		{"algorithm1+mpc", func(c *core.Config) { c.PolicyName = "mpc" }},
		{"feedback-pi", func(c *core.Config) { c.Controller = "feedback" }},
		{"twolevel-uniform", func(c *core.Config) {
			c.Controller = "twolevel"
			c.TwoLevelDivision = "uniform"
		}},
		{"twolevel-prop", func(c *core.Config) {
			c.Controller = "twolevel"
			c.TwoLevelDivision = "proportional"
		}},
	}
	runs, err := sc.run(cells)
	if err != nil {
		return nil, fmt.Errorf("controllers: %w", err)
	}
	moves := func(r *core.Result) float64 {
		switch {
		case r.FeedbackStats != nil:
			return float64(r.FeedbackStats.Moves)
		case r.TwoLevelStats != nil:
			return float64(r.TwoLevelStats.Moves)
		}
		return float64(r.ManagerStats.DegradeOps + r.ManagerStats.RestoreOps)
	}
	satLow := func(r *core.Result) float64 {
		switch {
		case r.FeedbackStats != nil:
			return float64(r.FeedbackStats.SatLow)
		case r.TwoLevelStats != nil:
			return float64(r.TwoLevelStats.StarvedNodes)
		}
		return 0
	}
	// Reductions are against the uncapped run.
	prs := compared(cells, runs)
	out := make([]ControllerPoint, len(cells))
	for i, rs := range runs {
		out[i] = ControllerPoint{Name: cells[i].name, PolicyResult: prs[i], Moves: mean(rs, moves), SatLowCycles: mean(rs, satLow)}
	}
	return out, nil
}

// ControllerTable renders the study.
func ControllerTable(pts []ControllerPoint) *Table {
	t := &Table{
		Title:  "Controller comparison: Algorithm 1 (selective) vs feedback PI (coordinated)",
		Header: []string{"controller", "Pmax", "ΔP×T cut", "perf", "CPLJ", "moves"},
		Notes: []string{
			"both controllers regulate to the same learned P_L",
			"moves = individual node level actuations over the run",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Name,
			fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction),
			f4(p.Performance), f3(p.CPLJFrac),
			fmt.Sprintf("%.0f", p.Moves))
	}
	return t
}
