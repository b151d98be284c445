package experiment

import (
	"fmt"

	"repro/internal/core"
)

// PrivilegedPoint is one cell of the dynamic-candidate-membership study.
type PrivilegedPoint struct {
	Fraction float64
	PolicyResult
}

// PrivilegedJobs sweeps the fraction of high-priority jobs (whose nodes
// are pinned out of A_candidate for their lifetime, §II.A) under MPC.
// As privileged work grows, the controllable power pool shrinks — the
// dynamic version of Figure 6's candidate-size effect — until the
// Controllability assumption fails and capping can no longer hold the
// system down.
func PrivilegedJobs(sc Scale, fracs []float64) ([]PrivilegedPoint, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.25, 0.5, 0.75}
	}
	return againstUncapped(sc, fracs,
		func(cfg *core.Config, f float64) { cfg.PrivilegedJobFraction = f },
		func(f float64, r PolicyResult) PrivilegedPoint { return PrivilegedPoint{Fraction: f, PolicyResult: r} })
}

// PrivilegedTable renders the sweep.
func PrivilegedTable(pts []PrivilegedPoint) *Table {
	t := &Table{
		Title:  "Extension E5: dynamic candidate membership — high-priority job fraction (MPC)",
		Header: []string{"priv jobs", "Pmax", "ΔP×T cut", "perf", "CPLJ"},
		Notes: []string{
			"nodes of high-priority jobs are pinned out of A_candidate for the job's lifetime (§II.A)",
		},
	}
	for _, p := range pts {
		t.AddRow(pct(p.Fraction),
			fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction), f4(p.Performance), f3(p.CPLJFrac))
	}
	return t
}
