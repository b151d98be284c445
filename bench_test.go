// Package repro_test holds the benchmark harness that regenerates every
// figure of the paper's evaluation section, plus micro-benchmarks of the
// architecture's hot paths.
//
// Figure benchmarks (one per paper figure; custom metrics carry the
// figure's headline numbers so `go test -bench` output doubles as the
// reproduction record):
//
//	BenchmarkFigure5ManagerCost     – manager CPU cost vs |A_candidate| (measured over TCP)
//	BenchmarkFigure6CandidateSweep  – capping effect vs |A_candidate|
//	BenchmarkFigure7Policies        – MPC vs HRI vs uncapped at 128 candidates
//	BenchmarkThresholdLearning      – §III.A threshold rule
//	BenchmarkAblationTg/Period/Margins – design-parameter ablations
//
// Micro-benchmarks cover formula (1) evaluation, policy selection on a
// 128-node snapshot, a full simulated control cycle, and the event engine.
package repro_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchScale keeps the figure benchmarks to a few seconds per iteration
// while preserving the paper's class-D regime.
func benchScale() experiment.Scale {
	return experiment.Scale{
		Class:    workload.ClassD,
		Training: 90 * time.Minute,
		Eval:     4 * time.Hour,
		Seeds:    []uint64{1},
	}
}

// BenchmarkFigure7Policies regenerates Figure 7. Reported metrics:
// perf_mpc / perf_hri (paper ≈0.98), pmaxcut_* (paper ≈0.10) and
// dpxtcut_* (paper 0.73 / 0.66).
func BenchmarkFigure7Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiment.Figure7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			switch r.Policy {
			case "mpc", "hri":
				b.ReportMetric(r.Performance, "perf_"+r.Policy)
				b.ReportMetric(r.PMaxReduction, "pmaxcut_"+r.Policy)
				b.ReportMetric(r.OverspendReduction, "dpxtcut_"+r.Policy)
			}
		}
	}
}

// BenchmarkFigure6CandidateSweep regenerates Figure 6 for MPC at three
// candidate sizes; reported metrics are the normalised ΔP×T values (paper:
// falling with size, diminishing beyond ≈48).
func BenchmarkFigure6CandidateSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Figure6(benchScale(), []int{0, 48, 128}, []string{"mpc"})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.K > 0 {
				b.ReportMetric(p.OverspendNorm, "dpxtnorm_k"+itoa(p.K))
			}
		}
	}
}

// BenchmarkFigure5ManagerCost regenerates Figure 5 on the real daemons;
// reported metrics are the measured manager CPU utilisations.
func BenchmarkFigure5ManagerCost(b *testing.B) {
	cfg := experiment.Figure5Config{
		Sizes:        []int{16, 64, 128},
		PerSize:      1500 * time.Millisecond,
		ControlEvery: 50 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.CPUUtil, "cpu_n"+itoa(p.Agents))
		}
	}
}

// BenchmarkThresholdLearning verifies the §III.A rule end to end; metrics
// report P_L/peak (paper 0.84) and P_H/peak (paper 0.93).
func BenchmarkThresholdLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiment.Thresholds(experiment.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].PLOverPeak, "pl_over_peak")
		b.ReportMetric(rs[0].PHOverPeak, "ph_over_peak")
	}
}

// BenchmarkAblationTg sweeps the steady-green patience (design choice,
// paper fixes T_g=10); metric reports the perf spread across the sweep.
func BenchmarkAblationTg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.AblationTg(experiment.Quick(), []int{1, 10, 50})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, p := range pts {
			if p.Performance < lo {
				lo = p.Performance
			}
			if p.Performance > hi {
				hi = p.Performance
			}
		}
		b.ReportMetric(hi-lo, "perf_spread")
	}
}

// BenchmarkAblationPeriod sweeps the control cycle τ; metric reports the
// ΔP×T-cut loss from a 1 s to an 8 s cycle (sensing lag).
func BenchmarkAblationPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.AblationPeriod(experiment.Quick(),
			[]time.Duration{time.Second, 8 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].OverspendReduction-pts[1].OverspendReduction, "dpxtcut_lag_loss")
	}
}

// BenchmarkAblationMargins sweeps the threshold margins around the paper's
// 16%/7%.
func BenchmarkAblationMargins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.AblationMargins(experiment.Quick(),
			[][2]float64{{0.10, 0.05}, {0.16, 0.07}, {0.24, 0.12}})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			_ = p
		}
		b.ReportMetric(pts[1].Performance, "perf_paper_margins")
	}
}

// BenchmarkThermalStudy regenerates the §I.A thermal comparison; metrics
// report the capped-vs-uncapped peak temperature and failure-multiplier
// deltas.
func BenchmarkThermalStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.ThermalStudy(experiment.Quick(), []string{"none", "mpc"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].PeakC-pts[1].PeakC, "peakC_saved")
		b.ReportMetric(pts[0].FailureMultiplier-pts[1].FailureMultiplier, "failx_saved")
	}
}

// BenchmarkControllerStudy compares Algorithm 1 against the feedback PI
// baseline; metric reports Algorithm 1's ΔP×T-cut advantage.
func BenchmarkControllerStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.ControllerStudy(experiment.Quick())
		if err != nil {
			b.Fatal(err)
		}
		var alg1, fb float64
		for _, p := range pts {
			switch p.Name {
			case "algorithm1+mpc":
				alg1 = p.OverspendReduction
			case "feedback-pi":
				fb = p.OverspendReduction
			}
		}
		b.ReportMetric(alg1-fb, "dpxtcut_advantage")
	}
}

// BenchmarkPrivilegedJobs sweeps dynamic candidate membership (§II.A);
// metric reports how much ΔP×T cut survives when 50% of jobs are pinned.
func BenchmarkPrivilegedJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.PrivilegedJobs(experiment.Quick(), []float64{0, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].OverspendReduction, "dpxtcut_at_50pct_priv")
	}
}

// BenchmarkCabinetStudy sweeps placement × policy on the 4-cabinet
// distribution model; metric reports how much breaker-trip exposure
// spread placement removes under MPC.
func BenchmarkCabinetStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiment.CabinetStudy(experiment.Quick())
		if err != nil {
			b.Fatal(err)
		}
		var packed, spread float64
		for _, p := range pts {
			if p.Policy != "mpc" {
				continue
			}
			if p.Placement == "firstfit" {
				packed = p.TripRisk
			} else {
				spread = p.TripRisk
			}
		}
		b.ReportMetric(packed-spread, "triprisk_removed")
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

// BenchmarkFormula1Estimate measures one power profile model evaluation —
// the per-node, per-cycle cost of the sensing path.
func BenchmarkFormula1Estimate(b *testing.B) {
	m := power.TianheNode()
	d := procfs.Delta{
		Interval: time.Second, CPUUtil: 0.8,
		MemUsed: 24 << 30, MemTotal: 48 << 30, NICBytes: 1 << 28,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Estimate(d, 7)
	}
}

// snapshot128 builds a realistic 128-node, 4-job policy snapshot.
func snapshot128() *policy.Snapshot {
	rng := rand.New(rand.NewSource(1))
	s := &policy.Snapshot{P: units.KW(34), PL: units.KW(33)}
	for i := 0; i < 128; i++ {
		jid := workload.JobID(1 + i/32)
		est := units.Watts(250 + rng.Float64()*60)
		ns := policy.NodeState{
			ID: node.ID(i), Level: 9, MaxLevel: 9,
			Est: est, EstLower: est - 15,
			PrevEst: est * units.Watts(0.95+rng.Float64()*0.1),
			Job:     jid,
		}
		s.Nodes = append(s.Nodes, ns)
		if len(s.Jobs) == 0 || s.Jobs[len(s.Jobs)-1].ID != jid {
			s.Jobs = append(s.Jobs, policy.JobState{ID: jid}) // IDs ascend with i
		}
		js := &s.Jobs[len(s.Jobs)-1]
		js.Nodes = append(js.Nodes, i)
		js.Power += ns.Est
		js.PrevPower += ns.PrevEst
		js.Saving += 15
	}
	return s
}

// BenchmarkPolicySelect measures target selection on a full 128-node
// snapshot for each policy family representative.
func BenchmarkPolicySelect(b *testing.B) {
	snap := snapshot128()
	for _, name := range []string{"mpc", "mpc-c", "bfp", "hri", "all"} {
		p, err := policy.New(name, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.Select(snap)
			}
		})
	}
}

// BenchmarkBuilderBuild measures snapshot assembly from 128 agent
// readings — the manager's per-cycle sensing aggregation.
func BenchmarkBuilderBuild(b *testing.B) {
	model := power.TianheNode()
	readings := make([]manager.AgentReading, 128)
	for i := range readings {
		readings[i] = manager.AgentReading{
			ID: node.ID(i), Level: 9, MaxLevel: 9,
			Delta: procfs.Delta{
				Interval: time.Second, CPUUtil: 0.8,
				MemUsed: 24 << 30, MemTotal: 48 << 30, NICBytes: 1 << 27,
			},
			Job: workload.JobID(1 + i/16),
		}
	}
	bld := manager.NewBuilder(model)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bld.Build(units.KW(34), units.KW(33), readings)
	}
}

// BenchmarkControlCycleSimulated measures one full simulated control cycle
// (tick + collect + build + Algorithm 1) on the 128-node system.
func BenchmarkControlCycleSimulated(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Class = workload.ClassC
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One virtual second per iteration.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Backend().(*backend.Sim).Engine().RunUntil(time.Duration(i+1) * time.Second)
	}
}

// BenchmarkEngineThroughput measures raw event dispatch.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	e.Every(time.Millisecond, func(*sim.Engine) { n++ })
	b.ResetTimer()
	e.RunUntil(time.Duration(b.N) * time.Millisecond)
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
