package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

// Scale sets the fidelity/runtime trade-off of the simulation harnesses.
type Scale struct {
	// Class is the NPB problem class.
	Class workload.Class
	// Training is the uncapped threshold-learning period before each
	// evaluation window.
	Training time.Duration
	// Eval is the measured window (the paper uses 12 h per policy).
	Eval time.Duration
	// Seeds are averaged over; more seeds smooth the peak statistics.
	Seeds []uint64
}

// Fast returns a scale that reproduces the paper's shapes in tens of
// seconds: class D workload, 2 h training, 6 h evaluation, two seeds.
func Fast() Scale {
	return Scale{Class: workload.ClassD, Training: 2 * time.Hour, Eval: 6 * time.Hour, Seeds: []uint64{1, 2}}
}

// Paper returns the paper-fidelity scale: 24 h training and 12 h
// evaluation per policy (§V.C), three seeds.
func Paper() Scale {
	return Scale{Class: workload.ClassD, Training: 24 * time.Hour, Eval: 12 * time.Hour, Seeds: []uint64{1, 2, 3}}
}

// Quick returns a unit-test scale (class C, minutes of virtual time).
func Quick() Scale {
	return Scale{Class: workload.ClassC, Training: 30 * time.Minute, Eval: time.Hour, Seeds: []uint64{1}}
}

// baseConfig returns the shared experiment configuration at this scale.
func (sc Scale) baseConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Class = sc.Class
	cfg.Training = sc.Training
	return cfg
}

// PolicyResult summarises one policy's averaged behaviour.
type PolicyResult struct {
	Policy string
	// Averages over seeds.
	PMax        units.Watts
	PMean       units.Watts
	Overspend   float64 // ΔP×T against the provision capability
	Performance float64
	CPLJFrac    float64
	JobsDone    float64
	// Worst case over seeds.
	RedEntries int
	// Against the uncapped baseline of the same seeds (filled by the
	// comparison harnesses).
	PMaxReduction      float64 // 1 − PMax/PMax_uncapped
	OverspendReduction float64 // 1 − ΔP×T/ΔP×T_uncapped
}

// cell is one configuration a study runs on every seed of its scale:
// mutate adjusts the scale's base config for each seed, and name labels the
// cell's averaged result and its errors.
type cell struct {
	name   string
	mutate func(*core.Config)
}

// policyCell runs policy, with mutate (optional) applied after it.
func policyCell(policy string, mutate func(*core.Config)) cell {
	return cell{policy, func(cfg *core.Config) {
		cfg.PolicyName = policy
		if mutate != nil {
			mutate(cfg)
		}
	}}
}

// policyCells is one policyCell per policy, each with mutate applied.
func policyCells(policies []string, mutate func(*core.Config)) []cell {
	cells := make([]cell, len(policies))
	for i, p := range policies {
		cells[i] = policyCell(p, mutate)
	}
	return cells
}

// run executes every cell on every seed of the scale through one pool of
// runtime.NumCPU() workers (each run is an independent, CPU-bound
// simulation, so more workers than cores only thrashes) and returns each
// cell's results in seed order.
func (sc Scale) run(cells []cell) ([][]*core.Result, error) {
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("experiment: no seeds")
	}
	out := make([][]*core.Result, len(cells))
	errs := make([]error, len(cells)*len(sc.Seeds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for ci, c := range cells {
		out[ci] = make([]*core.Result, len(sc.Seeds))
		for si, seed := range sc.Seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cfg := sc.baseConfig(seed)
				c.mutate(&cfg)
				sys, err := core.New(cfg)
				if err == nil {
					defer sys.Close()
					out[ci][si], err = sys.Run(sc.Eval)
				}
				if err != nil {
					errs[ci*len(sc.Seeds)+si] = fmt.Errorf("%s seed %d: %w", c.name, seed, err)
				}
			}()
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// mean averages f over one cell's results, summing in seed order so every
// host adds the same floats in the same order. A NaN reading (Performance
// and CPLJ of a window in which no job finished) adds nothing to the sum
// but still counts in the divisor.
func mean(rs []*core.Result, f func(*core.Result) float64) float64 {
	var sum float64
	for _, r := range rs {
		if v := f(r); !math.IsNaN(v) {
			sum += v
		}
	}
	return sum / float64(len(rs))
}

// summarise averages one cell's results; RedEntries is the worst seed's.
func summarise(policy string, rs []*core.Result) PolicyResult {
	res := PolicyResult{
		Policy:      policy,
		PMax:        units.Watts(mean(rs, func(r *core.Result) float64 { return float64(r.Summary.PMax) })),
		PMean:       units.Watts(mean(rs, func(r *core.Result) float64 { return float64(r.Summary.PMean) })),
		Overspend:   mean(rs, func(r *core.Result) float64 { return r.Summary.Overspend }),
		Performance: mean(rs, func(r *core.Result) float64 { return r.Summary.Performance }),
		CPLJFrac:    mean(rs, func(r *core.Result) float64 { return r.Summary.CPLJFrac }),
		JobsDone:    mean(rs, func(r *core.Result) float64 { return float64(r.Summary.JobsDone) }),
	}
	for _, r := range rs {
		res.RedEntries = max(res.RedEntries, r.ManagerStats.RedEntries)
	}
	return res
}

// compared summarises every cell's results and fills each one's
// reductions against the first cell's.
func compared(cells []cell, runs [][]*core.Result) []PolicyResult {
	out := make([]PolicyResult, len(cells))
	for i, rs := range runs {
		out[i] = summarise(cells[i].name, rs)
	}
	if len(out) > 0 {
		relativise(out[0], out)
	}
	return out
}

// againstUncapped runs the uncapped baseline and MPC under each value's
// mutation in one batch, and returns one point per value, in values'
// order, from the MPC result with its reductions against the baseline.
func againstUncapped[T, P any](sc Scale, values []T, set func(*core.Config, T), point func(T, PolicyResult) P) ([]P, error) {
	cells := []cell{policyCell("none", nil)}
	for _, v := range values {
		cells = append(cells, policyCell("mpc", func(cfg *core.Config) { set(cfg, v) }))
	}
	runs, err := sc.run(cells)
	if err != nil {
		return nil, err
	}
	rs := compared(cells, runs)[1:]
	out := make([]P, len(values))
	for i, v := range values {
		out[i] = point(v, rs[i])
	}
	return out, nil
}

// relativise fills the against-baseline reductions.
func relativise(baseline PolicyResult, rs []PolicyResult) {
	for i := range rs {
		if baseline.PMax > 0 {
			rs[i].PMaxReduction = 1 - float64(rs[i].PMax)/float64(baseline.PMax)
		}
		if baseline.Overspend > 0 {
			rs[i].OverspendReduction = 1 - rs[i].Overspend/baseline.Overspend
		}
	}
}

// Figure7 reproduces the paper's Figure 7: the uncapped baseline against
// the MPC and HRI policies with all 128 nodes in A_candidate. Paper
// findings: ≈2% performance loss under either policy, ≈10% maximal power
// reduction, ΔP×T reduced by 73% (MPC) and 66% (HRI), CPLJ slightly
// favouring MPC, and the red state never entered.
func Figure7(sc Scale) ([]PolicyResult, error) {
	return ComparePolicies(sc, []string{"none", "mpc", "hri"})
}

// PolicyFamily runs the full §IV policy family (the paper's future work):
// state-based MPC, MPC-C, LPC, LPC-C, BFP and change-based HRI, HRI-C,
// plus the none/all/random baselines.
func PolicyFamily(sc Scale) ([]PolicyResult, error) {
	return ComparePolicies(sc, []string{
		"none", "mpc", "mpc-c", "lpc", "lpc-c", "bfp", "hri", "hri-c", "mincost", "random", "all",
	})
}

// ComparePolicies runs the named policies on the Figure 7 scenario. The
// first entry should be "none" (or another baseline) for the reductions to
// be meaningful.
func ComparePolicies(sc Scale, policies []string) ([]PolicyResult, error) {
	cells := policyCells(policies, nil)
	runs, err := sc.run(cells)
	if err != nil {
		return nil, err
	}
	return compared(cells, runs), nil
}

// PolicyTable renders policy results.
func PolicyTable(title string, rs []PolicyResult) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "Pmax", "Pmax cut", "ΔP×T", "ΔP×T cut", "perf", "CPLJ", "jobs", "red"},
	}
	for _, r := range rs {
		t.AddRow(
			r.Policy,
			fmt.Sprintf("%.2f kW", r.PMax.KW()),
			pct(r.PMaxReduction),
			f4(r.Overspend),
			pct(r.OverspendReduction),
			f4(r.Performance),
			f3(r.CPLJFrac),
			fmt.Sprintf("%.0f", r.JobsDone),
			fmt.Sprintf("%d", r.RedEntries),
		)
	}
	return t
}

// FaultPoint is one fault-injection result.
type FaultPoint struct {
	DropRate float64
	PolicyResult
}

// Faults sweeps agent sample-loss rates under MPC (extension E2): the
// architecture should degrade gracefully — capping keeps working with
// stale/missing node views, at slightly reduced effectiveness.
func Faults(sc Scale, rates []float64) ([]FaultPoint, error) {
	return againstUncapped(sc, rates,
		func(cfg *core.Config, rate float64) { cfg.AgentDropRate = rate },
		func(rate float64, r PolicyResult) FaultPoint { return FaultPoint{DropRate: rate, PolicyResult: r} })
}

// FaultTable renders fault sweep results.
func FaultTable(ps []FaultPoint) *Table {
	t := &Table{
		Title:  "Fault injection: agent sample loss under MPC",
		Header: []string{"drop rate", "Pmax", "ΔP×T cut", "perf", "red"},
	}
	for _, p := range ps {
		t.AddRow(pct(p.DropRate), fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction), f4(p.Performance), fmt.Sprintf("%d", p.RedEntries))
	}
	return t
}

// ThresholdResult captures the §III.A learning outcome of one run.
type ThresholdResult struct {
	Seed         uint64
	TrainingPeak units.Watts
	PL, PH       units.Watts
	PLOverPeak   float64
	PHOverPeak   float64
}

// Thresholds verifies the threshold learning rule on uncapped training
// runs: P_H must equal 93% and P_L 84% of the observed training peak.
func Thresholds(sc Scale) ([]ThresholdResult, error) {
	runs, err := sc.run([]cell{policyCell("none", nil)})
	if err != nil {
		return nil, err
	}
	out := make([]ThresholdResult, len(sc.Seeds))
	for i, r := range runs[0] {
		out[i] = ThresholdResult{
			Seed:         sc.Seeds[i],
			TrainingPeak: r.TrainingPeak,
			PL:           r.Thresholds.PL,
			PH:           r.Thresholds.PH,
		}
		if r.TrainingPeak > 0 {
			out[i].PLOverPeak = float64(r.Thresholds.PL) / float64(r.TrainingPeak)
			out[i].PHOverPeak = float64(r.Thresholds.PH) / float64(r.TrainingPeak)
		}
	}
	return out, nil
}

// ThresholdTable renders threshold learning results.
func ThresholdTable(rs []ThresholdResult) *Table {
	t := &Table{
		Title:  "Threshold learning (§III.A): P_H = 93%·P_peak, P_L = 84%·P_peak",
		Header: []string{"seed", "peak", "P_L", "P_H", "P_L/peak", "P_H/peak"},
	}
	for _, r := range rs {
		t.AddRow(fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%.2f kW", r.TrainingPeak.KW()),
			fmt.Sprintf("%.2f kW", r.PL.KW()),
			fmt.Sprintf("%.2f kW", r.PH.KW()),
			f3(r.PLOverPeak), f3(r.PHOverPeak))
	}
	return t
}
