package experiment

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// FairnessPoint is one policy's fairness outcome.
type FairnessPoint struct {
	Policy string
	// Jain is Jain's fairness index over per-job slowdown losses
	// (1 = losses shared evenly, →1/n = one job bears everything).
	Jain float64
	// MaxLoss is the worst single job's relative slowdown.
	MaxLoss float64
	// Performance/CPLJ for context.
	Performance float64
	CPLJFrac    float64
	// PerBenchmark breaks the outcome down by workload.
	PerBenchmark []metrics.BenchmarkBreakdown
}

// FairnessStudy measures the §IV fairness argument: the paper holds that
// state-based MPC "is not fair when the targeted job does not cause the
// problem" and motivates change-based HRI as the fairer policy that
// "punishes the job that causes the problem and balances the effect among
// all nodes". This study computes Jain's index over per-job slowdown
// losses for each policy, plus the per-benchmark breakdown showing which
// workloads pay.
func FairnessStudy(sc Scale, policies []string) ([]FairnessPoint, error) {
	if len(policies) == 0 {
		policies = []string{"mpc", "hri", "mincost", "random", "all"}
	}
	runs, err := sc.run(policyCells(policies, nil))
	if err != nil {
		return nil, fmt.Errorf("fairness: %w", err)
	}
	out := make([]FairnessPoint, len(policies))
	for i, rs := range runs {
		pr := summarise(policies[i], rs)
		pt := FairnessPoint{
			Policy:       policies[i],
			Performance:  pr.Performance,
			CPLJFrac:     pr.CPLJFrac,
			PerBenchmark: metrics.ByBenchmark(rs[0].Jobs, metrics.DefaultLosslessTol),
		}
		// Jain's index averages over the seeds it is defined on.
		var jain float64
		jn := 0
		for _, r := range rs {
			if j := metrics.JainFairness(r.Jobs); !math.IsNaN(j) {
				jain += j
				jn++
			}
			pt.MaxLoss = max(pt.MaxLoss, metrics.MaxSlowdownLoss(r.Jobs))
		}
		if jn > 0 {
			pt.Jain = jain / float64(jn)
		}
		out[i] = pt
	}
	return out, nil
}

// FairnessTable renders the study.
func FairnessTable(pts []FairnessPoint) *Table {
	t := &Table{
		Title:  "Fairness study (§IV): who pays for power capping",
		Header: []string{"policy", "Jain", "max loss", "perf", "CPLJ"},
		Notes: []string{
			"Jain's index over per-job slowdown losses: 1 = pain shared evenly",
			"paper's claim: change-based HRI is fairer than state-based MPC",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Policy, f3(p.Jain), pct(p.MaxLoss), f4(p.Performance), f3(p.CPLJFrac))
	}
	return t
}

// BenchmarkTable renders one policy's per-benchmark breakdown.
func BenchmarkTable(policy string, rows []metrics.BenchmarkBreakdown) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Per-benchmark outcome under %s", policy),
		Header: []string{"benchmark", "jobs", "perf", "CPLJ", "max loss"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, fmt.Sprintf("%d", r.Jobs), f4(r.Performance),
			f3(r.CPLJFrac), pct(r.MaxLoss))
	}
	return t
}
