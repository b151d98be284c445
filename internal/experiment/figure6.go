package experiment

import (
	"fmt"

	"repro/internal/core"
)

// DefaultCandidateSizes are the |A_candidate| values swept in Figure 6.
var DefaultCandidateSizes = []int{0, 16, 32, 48, 64, 96, 128}

// SweepPoint is one (policy, candidate size) cell of Figure 6. Normalised
// values are against the size-0 run (no power management), as in the
// paper.
type SweepPoint struct {
	Policy string
	K      int // |A_candidate|
	PolicyResult
	PMaxNorm      float64 // PMax / PMax(K=0)
	OverspendNorm float64 // ΔP×T / ΔP×T(K=0)
}

// Figure6 reproduces the paper's Figure 6: the power capping effect (P_max
// and ΔP×T, normalised against no management) at increasing candidate set
// sizes, for the MPC and HRI policies. Paper findings: both metrics fall
// as |A_candidate| grows; the improvement diminishes beyond ≈48 nodes;
// MPC and HRI trend alike.
func Figure6(sc Scale, sizes []int, policies []string) ([]SweepPoint, error) {
	if len(sizes) == 0 {
		sizes = DefaultCandidateSizes
	}
	if len(policies) == 0 {
		policies = []string{"mpc", "hri"}
	}
	// The K=0 run is policy-independent (nothing to throttle); run it
	// once as the normalisation baseline.
	cells := []cell{policyCell("none", func(cfg *core.Config) { cfg.CandidateCount = 0 })}
	for _, pol := range policies {
		for _, k := range sizes {
			if k != 0 {
				cells = append(cells, policyCell(pol, func(cfg *core.Config) { cfg.CandidateCount = k }))
			}
		}
	}
	runs, err := sc.run(cells)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	baseline := summarise("none", runs[0])
	runs = runs[1:]
	out := make([]SweepPoint, 0, len(policies)*len(sizes))
	for _, pol := range policies {
		for _, k := range sizes {
			pr := baseline
			if k != 0 {
				pr, runs = summarise(pol, runs[0]), runs[1:]
			}
			pr.Policy = pol
			pt := SweepPoint{Policy: pol, K: k, PolicyResult: pr}
			if baseline.PMax > 0 {
				pt.PMaxNorm = float64(pr.PMax) / float64(baseline.PMax)
			}
			if baseline.Overspend > 0 {
				pt.OverspendNorm = pr.Overspend / baseline.Overspend
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Figure6Table renders the sweep in the paper's normalised form.
func Figure6Table(pts []SweepPoint) *Table {
	t := &Table{
		Title:  "Figure 6: power capping effect vs |A_candidate| (normalised to size 0)",
		Header: []string{"policy", "|A_candidate|", "Pmax/base", "ΔP×T/base", "perf"},
		Notes: []string{
			"paper: effect improves with candidate size, diminishing beyond ≈48 nodes",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Policy, fmt.Sprintf("%d", p.K), f3(p.PMaxNorm), f3(p.OverspendNorm), f4(p.Performance))
	}
	return t
}
