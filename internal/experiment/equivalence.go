package experiment

import (
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// E11 backend equivalence: the same control law must produce the same
// capping behaviour whether it senses and actuates the plant in-process
// (backend "sim") or over the managerd/agentd wire protocol (backend
// "daemon"). The run is not bit-identical across transports — the daemon
// path draws its per-node power estimates from wire samples that arrive
// through the collector — so equivalence is scored on the paper's
// headline metrics within stated tolerances.
const (
	// TolPMax bounds the relative P_max difference (ISSUE acceptance: 2%).
	TolPMax = 0.02
	// TolPerformance bounds the relative Performance(cap) difference.
	TolPerformance = 0.02
	// TolCPLJ bounds the absolute CPLJ-fraction difference (the metric is
	// already a fraction of jobs, so absolute is the meaningful scale).
	TolCPLJ = 0.05
	// TolOverspend bounds the relative ΔP×T difference. Overspend is an
	// integral of rare excursions above P_max and therefore the noisiest
	// metric; near-zero values are compared on absolute watt-hours instead.
	TolOverspend = 0.10
)

// EquivalenceResult holds one policy's metrics on both backends plus the
// relative deltas the acceptance criteria are judged on.
type EquivalenceResult struct {
	Policy      string
	Sim, Daemon PolicyResult
	// Relative deltas |daemon−sim|/sim (CPLJ: absolute difference).
	DPMax, DPerformance, DCPLJ, DOverspend float64
	// Daemon-side transport totals, proving the wire path was exercised.
	Samples, Acks int64
}

// Within reports whether every delta is inside its tolerance.
func (r EquivalenceResult) Within() bool { return len(r.Violations()) == 0 }

// Violations lists the tolerance breaches, empty when equivalent.
func (r EquivalenceResult) Violations() []string {
	var v []string
	if r.DPMax > TolPMax {
		v = append(v, fmt.Sprintf("P_max delta %.4f > %.2f", r.DPMax, TolPMax))
	}
	if r.DPerformance > TolPerformance {
		v = append(v, fmt.Sprintf("performance delta %.4f > %.2f", r.DPerformance, TolPerformance))
	}
	if r.DCPLJ > TolCPLJ {
		v = append(v, fmt.Sprintf("CPLJ delta %.4f > %.2f", r.DCPLJ, TolCPLJ))
	}
	if r.DOverspend > TolOverspend {
		v = append(v, fmt.Sprintf("ΔP×T delta %.4f > %.2f", r.DOverspend, TolOverspend))
	}
	return v
}

// relDelta returns |b−a|/|a|, falling back to the absolute difference on
// the floor scale when a is (near) zero so that 0-vs-0 scores 0 rather
// than NaN and 0-vs-ε is judged on ε's own magnitude.
func relDelta(a, b, floor float64) float64 {
	d := math.Abs(b - a)
	if math.Abs(a) < floor {
		return d / floor
	}
	return d / math.Abs(a)
}

// BackendEquivalence runs one seeded scenario for the given policy on the
// sim backend and again on the daemon backend, and scores the deltas.
// mutate (optional) adjusts both configs identically before construction.
func BackendEquivalence(sc Scale, policy string, mutate func(*core.Config)) (EquivalenceResult, error) {
	if len(sc.Seeds) == 0 {
		return EquivalenceResult{}, fmt.Errorf("experiment: no seeds")
	}
	res := EquivalenceResult{Policy: policy}
	run := func(backendName string) (PolicyResult, error) {
		cfg := sc.baseConfig(sc.Seeds[0])
		cfg.PolicyName = policy
		cfg.Backend = backendName
		if mutate != nil {
			mutate(&cfg)
		}
		sys, err := core.New(cfg)
		if err != nil {
			return PolicyResult{}, fmt.Errorf("backend %s: %w", backendName, err)
		}
		defer sys.Close()
		r, err := sys.Run(sc.Eval)
		if err != nil {
			return PolicyResult{}, fmt.Errorf("backend %s: %w", backendName, err)
		}
		if d, ok := sys.Backend().(*backend.Daemon); ok {
			st := d.Status()
			res.Samples, res.Acks = st.SamplesReceived, int64(st.CommandAcks)
		}
		return summarise(policy, []*core.Result{r}), nil
	}

	var err error
	if res.Sim, err = run("sim"); err != nil {
		return res, err
	}
	if res.Daemon, err = run("daemon"); err != nil {
		return res, err
	}

	res.DPMax = relDelta(float64(res.Sim.PMax), float64(res.Daemon.PMax), 1)
	res.DPerformance = relDelta(res.Sim.Performance, res.Daemon.Performance, 1e-6)
	res.DCPLJ = math.Abs(res.Daemon.CPLJFrac - res.Sim.CPLJFrac)
	// ΔP×T is normalised by P_max·T already; judge tiny values on an
	// absolute floor of 1e-4 to avoid amplifying numerical dust.
	res.DOverspend = relDelta(res.Sim.Overspend, res.Daemon.Overspend, 1e-4)
	return res, nil
}

// EquivalenceTable renders an E11 result side by side.
func EquivalenceTable(r EquivalenceResult) *Table {
	t := &Table{
		Title:  fmt.Sprintf("E11 backend equivalence (%s): sim vs daemon transport", r.Policy),
		Header: []string{"metric", "sim", "daemon", "delta", "tolerance", "verdict"},
	}
	verdict := func(d, tol float64) string {
		if d <= tol {
			return "ok"
		}
		return "VIOLATED"
	}
	t.AddRow("P_max",
		fmt.Sprintf("%.3f kW", r.Sim.PMax.KW()),
		fmt.Sprintf("%.3f kW", r.Daemon.PMax.KW()),
		f4(r.DPMax), f2(TolPMax), verdict(r.DPMax, TolPMax))
	t.AddRow("performance",
		f4(r.Sim.Performance), f4(r.Daemon.Performance),
		f4(r.DPerformance), f2(TolPerformance), verdict(r.DPerformance, TolPerformance))
	t.AddRow("CPLJ",
		f3(r.Sim.CPLJFrac), f3(r.Daemon.CPLJFrac),
		f4(r.DCPLJ), f2(TolCPLJ), verdict(r.DCPLJ, TolCPLJ))
	t.AddRow("ΔP×T",
		f4(r.Sim.Overspend), f4(r.Daemon.Overspend),
		f4(r.DOverspend), f2(TolOverspend), verdict(r.DOverspend, TolOverspend))
	t.AddRow("jobs",
		fmt.Sprintf("%.0f", r.Sim.JobsDone), fmt.Sprintf("%.0f", r.Daemon.JobsDone),
		"", "", "")
	return t
}

// ShortEquivalenceScale is the CI smoke variant of E11: same class and
// policy, minutes of virtual time so the race detector stays affordable.
func ShortEquivalenceScale() Scale {
	return Scale{Class: Quick().Class, Training: 10 * time.Minute, Eval: 20 * time.Minute, Seeds: []uint64{1}}
}
