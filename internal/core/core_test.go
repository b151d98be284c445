package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/units"
	"repro/internal/workload"
)

func quickCfg(pol string, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Class = workload.ClassC
	cfg.PolicyName = pol
	cfg.Training = 30 * time.Minute
	return cfg
}

// simCluster reaches through the backend seam to the simulated cluster;
// only valid on the (default) sim backend.
func simCluster(t *testing.T, sys *System) *cluster.Cluster {
	t.Helper()
	sb, ok := sys.Backend().(*backend.Sim)
	if !ok {
		t.Fatalf("backend is %T, want *backend.Sim", sys.Backend())
	}
	return sb.Cluster()
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.PMax = 0 },
		func(c *Config) { c.ControlPeriod = 0 },
		func(c *Config) { c.TickPeriod = -1 },
		func(c *Config) { c.Tg = 0 },
		func(c *Config) { c.AdjustEvery = 0 },
		func(c *Config) { c.AgentDropRate = 1.0 },
		func(c *Config) { c.Model.CPU.Freqs = nil },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestConfigSaysEachFieldOnce: core.Config adds only the control half to
// the plant's config it embeds. A field re-declared here would shadow the
// plant's, and setting it (cfg.Seed = 5) would silently stop reaching
// the plant.
func TestConfigSaysEachFieldOnce(t *testing.T) {
	plant := reflect.TypeOf(backend.Config{})
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		if f.Anonymous {
			continue
		}
		if _, shadows := plant.FieldByName(f.Name); shadows {
			t.Errorf("core.Config.%s shadows backend.Config.%s", f.Name, f.Name)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := quickCfg("bogus", 1)
	if _, err := New(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.Benchmarks = []string{"FT"}
	if _, err := New(cfg); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunValidation(t *testing.T) {
	sys, err := New(quickCfg("mpc", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := sys.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(time.Minute); err == nil {
		t.Error("second Run accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		sys, err := New(quickCfg("mpc", 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary.PMax != b.Summary.PMax || a.Summary.Energy != b.Summary.Energy {
		t.Errorf("same seed produced different runs: %+v vs %+v", a.Summary, b.Summary)
	}
	if a.Summary.JobsDone != b.Summary.JobsDone {
		t.Error("job counts differ across identical runs")
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Error("job lists differ")
	}
}

func TestSeedsDiffer(t *testing.T) {
	res := map[units.Watts]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		sys, err := New(quickCfg("none", seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		res[r.Summary.PMax] = true
	}
	if len(res) < 2 {
		t.Error("different seeds produced identical peaks (suspicious)")
	}
}

func TestUncappedBaselineLossless(t *testing.T) {
	sys, err := New(quickCfg("none", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.Performance-1) > 1e-6 {
		t.Errorf("uncapped performance = %v, want 1.0", res.Summary.Performance)
	}
	if res.Summary.CPLJFrac < 0.999 {
		t.Errorf("uncapped CPLJ = %v, want 1.0", res.Summary.CPLJFrac)
	}
	if res.ManagerStats.DegradeOps != 0 {
		t.Error("uncapped baseline issued degrade commands")
	}
}

func TestCappingReducesPeak(t *testing.T) {
	runP := func(pol string) *Result {
		sys, err := New(quickCfg(pol, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Run(2 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := runP("none")
	capped := runP("mpc")
	if capped.Summary.PMax >= base.Summary.PMax {
		t.Errorf("capped peak %v not below uncapped %v", capped.Summary.PMax, base.Summary.PMax)
	}
	if capped.Summary.Performance < 0.9 {
		t.Errorf("capping destroyed performance: %v", capped.Summary.Performance)
	}
	if capped.ManagerStats.DegradeOps == 0 {
		t.Error("capped run never throttled (nothing was tested)")
	}
}

func TestTrainingWindowExcludedFromResults(t *testing.T) {
	cfg := quickCfg("none", 1)
	cfg.Training = time.Hour
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Series must start at/after the training boundary.
	if res.Series.Len() == 0 {
		t.Fatal("no samples recorded")
	}
	t0, _ := res.Series.At(0)
	if t0 < time.Hour {
		t.Errorf("series starts at %v, inside the training window", t0)
	}
	for _, j := range res.Jobs {
		if j.End() < time.Hour {
			t.Errorf("job finished at %v included in evaluation window", j.End())
		}
	}
	// The training peak must have been observed.
	if res.TrainingPeak <= 0 {
		t.Error("no training peak recorded")
	}
}

func TestThresholdLearningPaperRule(t *testing.T) {
	cfg := quickCfg("mpc", 2)
	cfg.Training = time.Hour
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(res.TrainingPeak)
	pl, ph := float64(res.Thresholds.PL), float64(res.Thresholds.PH)
	// Thresholds derive from the lifetime peak with the 84%/93% rule;
	// allow slack for a peak observed after the last adjustment.
	if r := ph / peak; r < 0.90 || r > 0.94 {
		t.Errorf("PH/peak = %.3f, want ≈0.93", r)
	}
	if r := pl / peak; r < 0.81 || r > 0.85 {
		t.Errorf("PL/peak = %.3f, want ≈0.84", r)
	}
}

func TestCandidateCountRestrictsThrottling(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.CandidateCount = 8
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(simCluster(t, sys).Candidates()); got != 8 {
		t.Fatalf("candidates = %d", got)
	}
	if _, err := sys.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	// Only candidate nodes may end below the top level.
	for _, n := range simCluster(t, sys).Nodes() {
		if !n.Controllable() && !n.AtHighest() {
			t.Errorf("non-candidate node %d at level %d", n.ID(), n.Level())
		}
	}
}

func TestPrivilegedNodesNeverThrottled(t *testing.T) {
	cfg := quickCfg("all", 1) // most aggressive policy
	cfg.Privileged = 32
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, n := range simCluster(t, sys).Nodes() {
		if !n.Controllable() && !n.AtHighest() {
			t.Errorf("privileged node %d was throttled to level %d", n.ID(), n.Level())
		}
	}
}

func TestAgentDropFaults(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.AgentDropRate = 0.2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedReadings == 0 {
		t.Error("no readings dropped at 20% fault rate")
	}
	// Capping still functions.
	if res.ManagerStats.DegradeOps == 0 {
		t.Error("capping inert under faults")
	}
}

func TestTheoreticalPeakAndNecessity(t *testing.T) {
	sys, err := New(quickCfg("none", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Necessity assumption: provision < theoretical peak.
	if units.Watts(31000) >= res.TheoreticalPeak {
		t.Errorf("P_thy = %v too low", res.TheoreticalPeak)
	}
	// Observed peak below theoretical peak.
	if res.Summary.PMax >= res.TheoreticalPeak {
		t.Error("observed peak at/above theoretical peak")
	}
}

func TestSenseTimeAccounted(t *testing.T) {
	sys, err := New(quickCfg("mpc", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.SenseTime <= 0 {
		t.Error("sensing time not accounted")
	}
}

func TestFeedbackControllerPath(t *testing.T) {
	cfg := quickCfg("mpc", 1) // PolicyName ignored with feedback
	cfg.Controller = "feedback"
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.FeedbackStats == nil {
		t.Fatal("no feedback stats")
	}
	if res.FeedbackStats.Cycles == 0 || res.FeedbackStats.Moves == 0 {
		t.Errorf("feedback inert: %+v", res.FeedbackStats)
	}
	if res.ManagerStats.DegradeOps != 0 {
		t.Error("Algorithm 1 actuated during a feedback run")
	}
	if res.Summary.Performance < 0.9 {
		t.Errorf("feedback perf = %v", res.Summary.Performance)
	}
	// Unknown controller rejected.
	bad := quickCfg("mpc", 1)
	bad.Controller = "pid-magic"
	if _, err := New(bad); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestThermalPath(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.ThermalEnabled = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Thermal == nil {
		t.Fatal("thermal summary missing")
	}
	if res.Thermal.PeakC < 25 || res.Thermal.PeakC > 60 {
		t.Errorf("peak temp %.1f implausible", res.Thermal.PeakC)
	}
	if res.Thermal.CoolingEnergy <= 0 {
		t.Error("no cooling energy accounted")
	}
	// Without the flag, no summary.
	sys2, _ := New(quickCfg("mpc", 1))
	res2, _ := sys2.Run(30 * time.Minute)
	if res2.Thermal != nil {
		t.Error("thermal summary present without flag")
	}
}

func TestRecordReplayThroughCore(t *testing.T) {
	run := func(cfg Config) *Result {
		t.Helper()
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := quickCfg("none", 5)
	rec.RecordTrace = true
	r1 := run(rec)
	if r1.Trace == nil || r1.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}

	// Replay under a different seed and a capping policy — the A/B case:
	// every request the replayed run draws is the recorded one, in order,
	// whatever the seed and the policy do to noise and job timing.
	ab := quickCfg("mpc", 6)
	ab.WorkloadTrace = r1.Trace
	ab.RecordTrace = true
	rAB := run(ab)
	n := min(r1.Trace.Len(), rAB.Trace.Len())
	if n < 1 {
		t.Fatalf("no common requests: recorded %d, replayed %d", r1.Trace.Len(), rAB.Trace.Len())
	}
	for i := 0; i < n; i++ {
		if r1.Trace.Records[i] != rAB.Trace.Records[i] {
			t.Errorf("request %d: recorded %+v, replayed %+v", i, r1.Trace.Records[i], rAB.Trace.Records[i])
		}
	}

	// Replay under the recording's own seed and policy: the run finishes
	// the same jobs in the same order.
	same := quickCfg("none", 5)
	same.WorkloadTrace = r1.Trace
	r2 := run(same)
	if len(r1.Jobs) != len(r2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(r1.Jobs), len(r2.Jobs))
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Spec().Name != r2.Jobs[i].Spec().Name ||
			r1.Jobs[i].NProcs() != r2.Jobs[i].NProcs() {
			t.Errorf("job %d differs: %s/%d vs %s/%d", i,
				r1.Jobs[i].Spec().Name, r1.Jobs[i].NProcs(),
				r2.Jobs[i].Spec().Name, r2.Jobs[i].NProcs())
		}
	}
}

func TestPrivilegedFractionValidation(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.PrivilegedJobFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("fraction > 1 accepted")
	}
	cfg.PrivilegedJobFraction = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestPrivilegedJobsNeverSlowed(t *testing.T) {
	cfg := quickCfg("all", 3) // aggressive throttling
	cfg.PrivilegedJobFraction = 0.3
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, j := range res.Jobs {
		if j.Privileged() {
			checked++
			if !j.Lossless(0.001) {
				t.Errorf("privileged job %d (%s) lost performance: ref %v actual %v",
					j.ID(), j.Spec().Name, j.ReferenceDuration(), j.ActualDuration())
			}
		}
	}
	if checked == 0 {
		t.Error("no privileged jobs finished (test vacuous)")
	}
}

func TestCheckAssumptions(t *testing.T) {
	sys, err := New(quickCfg("mpc", 1))
	if err != nil {
		t.Fatal(err)
	}
	as := sys.CheckAssumptions()
	if len(as) != 4 {
		t.Fatalf("assumptions = %d, want 4 (§II.D)", len(as))
	}
	for _, a := range as {
		if !a.Holds {
			t.Errorf("default config violates %s: %s", a.Name, a.Detail)
		}
		if a.Detail == "" {
			t.Errorf("%s missing detail", a.Name)
		}
	}
	out := FormatAssumptions(as)
	for _, want := range []string{"controllability", "observability", "necessity", "operability"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %s", want)
		}
	}
}

func TestAssumptionViolationsDetected(t *testing.T) {
	// Provision above P_thy violates Necessity.
	cfg := quickCfg("mpc", 1)
	cfg.PMax = units.MW(1)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a := findAssumption(t, sys.CheckAssumptions(), "necessity"); a.Holds {
		t.Error("1 MW provision should violate necessity")
	}
	// A tiny provision violates Controllability and Operability.
	cfg2 := quickCfg("mpc", 1)
	cfg2.PMax = units.KW(10)
	sys2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	as := sys2.CheckAssumptions()
	if a := findAssumption(t, as, "controllability"); a.Holds {
		t.Error("10 kW provision should violate controllability")
	}
	if a := findAssumption(t, as, "operability"); a.Holds {
		t.Error("10 kW provision should violate operability")
	}
	// An all-privileged cluster violates controllability regardless.
	cfg3 := quickCfg("mpc", 1)
	cfg3.Privileged = cfg3.Nodes
	sys3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if a := findAssumption(t, sys3.CheckAssumptions(), "controllability"); a.Holds {
		t.Error("all-privileged cluster should violate controllability")
	}
}

func findAssumption(t *testing.T, as []Assumption, name string) Assumption {
	t.Helper()
	for _, a := range as {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("assumption %s missing", name)
	return Assumption{}
}

// TestSoak runs a two-virtual-day capped run and checks structural
// invariants throughout: levels inside each node's table, A_degraded
// consistent with node levels at quiescence, monotone series, no red
// entries, and a sane final restore.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := quickCfg("mpc", 11)
	cfg.Training = 2 * time.Hour
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(46 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range simCluster(t, sys).Nodes() {
		if n.Level() < 0 || n.Level() >= n.Levels() {
			t.Errorf("node %d at level %d of %d", n.ID(), n.Level(), n.Levels())
		}
	}
	// The series is time-ordered by construction; spot-check monotone
	// timestamps and the sample count (one per control cycle).
	wantSamples := int(46 * time.Hour / cfg.ControlPeriod)
	if got := res.Series.Len(); got < wantSamples-2 || got > wantSamples+2 {
		t.Errorf("series samples = %d, want ≈%d", got, wantSamples)
	}
	var prev time.Duration = -1
	for i := 0; i < res.Series.Len(); i += 1000 {
		ts, p := res.Series.At(i)
		if ts <= prev {
			t.Fatalf("series time went backwards at %d", i)
		}
		if p < 0 || p > res.TheoreticalPeak {
			t.Errorf("sample %d power %v out of physical range", i, p)
		}
		prev = ts
	}
	st := res.ManagerStats
	if st.Cycles < wantSamples-2 {
		t.Errorf("manager cycles = %d", st.Cycles)
	}
	// Degrades and restores must balance to the currently degraded set.
	if st.DegradeOps < st.RestoreOps {
		t.Errorf("restores %d exceed degrades %d", st.RestoreOps, st.DegradeOps)
	}
	if res.Summary.Performance < 0.95 {
		t.Errorf("soak perf = %v", res.Summary.Performance)
	}
	if res.Summary.JobsDone < 500 {
		t.Errorf("only %d jobs finished in 46 virtual hours", res.Summary.JobsDone)
	}
}

func TestUnknownBackendNameRejected(t *testing.T) {
	cfg := quickCfg("mpc", 1)
	cfg.Backend = "carrier-pigeon"
	if _, err := New(cfg); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestDaemonBackendSmoke runs the full control law over the daemon
// transport and asserts it behaves: thresholds learned, capping active,
// samples and acks actually crossing the wire.
func TestDaemonBackendSmoke(t *testing.T) {
	cfg := quickCfg("mpc", 5)
	cfg.Backend = "daemon"
	cfg.Nodes = 16
	cfg.PMax = units.KW(4)
	cfg.Training = 10 * time.Minute
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run(20 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Thresholds.PL <= 0 || res.Thresholds.PH <= res.Thresholds.PL {
		t.Errorf("bad thresholds: %+v", res.Thresholds)
	}
	if res.Summary.JobsDone == 0 {
		t.Error("no jobs finished")
	}
	d, ok := sys.Backend().(*backend.Daemon)
	if !ok {
		t.Fatalf("backend is %T, want *backend.Daemon", sys.Backend())
	}
	st := d.Status()
	wantSamples := int64(cfg.Nodes) * int64((10*time.Minute+20*time.Minute)/cfg.ControlPeriod)
	if st.SamplesReceived != wantSamples {
		t.Errorf("samples received = %d, want %d", st.SamplesReceived, wantSamples)
	}
	if res.ManagerStats.DegradeOps == 0 {
		t.Error("capping inert over the daemon transport")
	} else if st.CommandAcks == 0 {
		t.Error("degrade ops issued but no command acks on the wire")
	}
}
