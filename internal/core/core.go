// Package core wires the complete power provision and capping system of
// the paper: the simulated Tianhe-1A cluster, the NPB evaluation workload
// (§V.B–C), the facility power meter, the threshold learner (§III.A), the
// per-node sensing path, and the global power manager running Algorithm 1
// with a configurable target set selection policy (§IV).
//
// It is the public API of this repository: construct a System from a
// Config and Run it for a virtual duration; the Result carries the paper's
// metrics (Performance, CPLJ, P_max, ΔP×T) plus control-loop statistics.
//
//	cfg := core.DefaultConfig()
//	cfg.PolicyName = "mpc"
//	sys, err := core.New(cfg)
//	res, err := sys.Run(12 * time.Hour)
//	fmt.Println(res.Summary.Performance, res.Summary.PMax)
package core

import (
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/feedback"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pdist"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config describes one complete experiment setup. DefaultConfig returns
// the paper's environment; tests and ablations override fields.
type Config struct {
	// Config is the plant: nodes, models, workload, meter, cabinets,
	// thermal model and the schedule. Its fields promote, so cfg.Seed and
	// cfg.Nodes are the plant's own; the Seed also derives the control
	// side's "policy" and "faults" streams. With ModelFor set, the
	// sensing path registers each node's model so formula (1) is
	// evaluated with the right coefficients.
	backend.Config

	// Backend selects the cluster transport: "" or "sim" runs the
	// in-process simulation path; "daemon" runs the same simulated plant
	// behind a real managerd/agentd daemon plane, sensing and actuating
	// over the wire (see internal/backend). The control law is identical
	// on both — one control law, two transports.
	Backend string

	// PolicyName selects the target set selection policy (§IV); see
	// policy.Names. "none" disables capping (the baseline run).
	PolicyName string

	// Controller selects the control law: "capping" (Algorithm 1, the
	// paper's contribution; default when empty), "feedback" (the
	// Wang & Chen cluster-level PI baseline from §I.B, which adjusts
	// every candidate node each cycle) or "twolevel" (the Femal-style
	// per-node budget division of §I.B, enforced locally on each node).
	// With a non-capping controller, PolicyName is ignored.
	Controller string
	// TwoLevelDivision selects the budget split for the "twolevel"
	// controller: "uniform" (default) or "proportional".
	TwoLevelDivision string

	// Tg is the steady-green patience in cycles; AdjustEvery is t_p, the
	// threshold re-adjustment period in cycles; Training is the initial
	// uncapped threshold-learning period.
	Tg          int
	AdjustEvery int
	Training    time.Duration
	// MarginL/MarginH are the threshold derivation margins (defaults
	// 16%/7% per Fan et al.).
	MarginL, MarginH float64

	// AgentDropRate injects sensing faults: the probability that a
	// node's reading is lost in a given cycle.
	AgentDropRate float64

	// CycleHistory is how many staged cycle timelines the run retains
	// (Result.CycleSpans); zero selects obs.DefaultCycleHistory.
	CycleHistory int
}

// DefaultConfig returns the paper's experiment environment: 128 Tianhe-1A
// nodes, NPB class D, 40 kW provision capability, 1 s control cycle,
// Tg = 10 cycles, thresholds learned per §III.A.
func DefaultConfig() Config {
	return Config{
		Config: backend.Config{
			Seed:           1,
			Nodes:          128,
			CandidateCount: -1,
			Model:          power.TianheNode(),
			Class:          workload.ClassD,
			ProcsPerNode:   2, // NPROCS=256 fills all 128 nodes, as on the testbed
			PMax:           units.KW(31),
			ControlPeriod:  time.Second,
			TickPeriod:     time.Second,
			MeterNoise:     0.003,
			ModelError:     0.02,
			PowerJitter:    0.005,
			JobRampUp:      45 * time.Second,
			JobJitter:      0.03,
			IdleLoad:       node.Load{CPUUtil: 0.02},
		},
		PolicyName:  "mpc",
		Tg:          10,
		AdjustEvery: 300,
		MarginL:     power.DefaultMarginL,
		MarginH:     power.DefaultMarginH,
	}
}

// Validate checks the configuration for consistency: the plant's own
// checks, then the control half's. The backend name is checked where the
// backend is chosen (backend.New).
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.PMax <= 0 {
		return fmt.Errorf("core: PMax must be positive")
	}
	if c.Tg <= 0 {
		return fmt.Errorf("core: Tg must be positive")
	}
	if c.AdjustEvery <= 0 {
		return fmt.Errorf("core: AdjustEvery must be positive")
	}
	if c.AgentDropRate < 0 || c.AgentDropRate >= 1 {
		return fmt.Errorf("core: AgentDropRate %v outside [0,1)", c.AgentDropRate)
	}
	switch c.Controller {
	case "", "capping", "feedback", "twolevel":
	default:
		return fmt.Errorf("core: unknown controller %q (want capping, feedback or twolevel)", c.Controller)
	}
	switch c.TwoLevelDivision {
	case "", "uniform", "proportional":
	default:
		return fmt.Errorf("core: unknown two-level division %q", c.TwoLevelDivision)
	}
	return nil
}

// System is a fully wired experiment instance: the control plane
// (learner, sensing builder, Algorithm 1 manager) over a cluster
// backend that owns the plant, the clock and the transport.
type System struct {
	cfg     Config
	backend backend.Backend
	learner *power.Learner
	builder *manager.Builder
	mgr     *manager.Manager

	reg   *obs.Registry
	trace *obs.CycleRecorder

	series    *metrics.Series
	events    trace.EventLog
	lastState power.State
	haveState bool
	recording bool
	ran       bool
	senseTime time.Duration
	faultRng  func() float64 // nil when no faults
	dropped   int

	fb       *feedback.Controller // non-nil when Controller == "feedback"
	twolevel *twoLevel            // non-nil when Controller == "twolevel"
}

// New constructs a System over the configured backend.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := backend.New(cfg.Backend, cfg.Config)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*System, error) {
		_ = b.Close()
		return nil, err
	}

	pol, err := policy.New(cfg.PolicyName, b.Stream("policy"))
	if err != nil {
		return fail(err)
	}
	// One registry and one staged-cycle recorder span the whole run: the
	// manager's classify/select/actuate stages, core's sense stage and
	// the backend's settle stage all land on the same timeline.
	reg := obs.NewRegistry()
	rec := obs.NewCycleRecorder(cfg.CycleHistory, reg)
	b.Observe(rec)
	mgr, err := manager.New(manager.Config{Tg: cfg.Tg, Policy: pol, Obs: reg, Trace: rec})
	if err != nil {
		return fail(err)
	}
	learner, err := power.NewLearner(cfg.PMax, cfg.Training, cfg.AdjustEvery)
	if err != nil {
		return fail(err)
	}
	if err := learner.SetMargins(cfg.MarginL, cfg.MarginH); err != nil {
		return fail(err)
	}

	s := &System{
		cfg:     cfg,
		backend: b,
		learner: learner,
		builder: newBuilder(cfg),
		mgr:     mgr,
		reg:     reg,
		trace:   rec,
		series:  &metrics.Series{},
	}
	if cfg.AgentDropRate > 0 {
		rng := b.Stream("faults")
		s.faultRng = rng.Float64
	}
	if cfg.Controller == "feedback" {
		fb, err := feedback.New(feedback.Default(cfg.PMax))
		if err != nil {
			return fail(err)
		}
		s.fb = fb
	}
	if cfg.Controller == "twolevel" {
		div := budget.Uniform
		if cfg.TwoLevelDivision == "proportional" {
			div = budget.Proportional
		}
		s.twolevel = &twoLevel{total: cfg.PMax, division: div, model: cfg.Model}
	}

	if err := b.Start(s.control); err != nil {
		return fail(err)
	}
	return s, nil
}

// newBuilder creates the sensing snapshot builder, registering per-node
// profile models on heterogeneous clusters.
func newBuilder(cfg Config) *manager.Builder {
	b := manager.NewBuilder(cfg.Model)
	if cfg.ModelFor != nil {
		for i := 0; i < cfg.Nodes; i++ {
			b.SetNodeModel(node.ID(i), cfg.ModelFor(i))
		}
	}
	return b
}

// control runs one manager cycle.
func (s *System) control(now time.Duration) {
	p := s.backend.ReadMeter()
	thr := s.learner.Observe(now, p)
	if s.recording {
		_ = s.series.Add(now, p)
	}

	st := thr.Classify(p)
	if s.recording && (!s.haveState || st != s.lastState) {
		s.events.Add(trace.Event{
			TimeSec: now.Seconds(),
			Kind:    "state",
			State:   st.String(),
			PowerW:  float64(p),
		})
	}
	s.lastState, s.haveState = st, true

	t0 := time.Now()
	readings := s.backend.Sense(now)
	if s.faultRng != nil {
		kept := readings[:0]
		for _, r := range readings {
			if s.faultRng() < s.cfg.AgentDropRate {
				s.dropped++
				continue
			}
			kept = append(kept, r)
		}
		readings = kept
	}
	snap := s.builder.Build(p, thr.PL, readings)
	dSense := time.Since(t0)
	s.senseTime += dSense
	s.trace.Stage(obs.StageSense, dSense, fmt.Sprintf("readings=%d", len(readings)))

	// During the training period the system runs uncapped (§V.C): sense
	// to keep history warm, but do not actuate.
	if !s.learner.Trained() {
		return
	}
	if s.fb != nil {
		// The feedback baseline regulates to the same P_L Algorithm 1
		// would hold, for a fair comparison.
		s.fb.SetSetpoint(thr.PL)
		s.fb.Cycle(p, snap, s.backend)
		return
	}
	if s.twolevel != nil {
		// The two-level baseline divides the same P_L into per-node
		// budgets enforced locally.
		s.twolevel.setBudget(thr.PL)
		s.twolevel.cycle(readings, s.backend)
		return
	}
	// The "none" policy is the fully uncapped baseline — Algorithm 1's
	// red state would floor the candidates regardless of policy, so the
	// baseline skips the manager entirely.
	if s.cfg.PolicyName == "none" {
		return
	}
	if _, _, err := s.mgr.Cycle(p, thr, snap, s.backend); err != nil {
		// Threshold validation cannot fail here by construction; a
		// failure would indicate a learner bug worth surfacing loudly.
		panic(err)
	}
}

// Result carries everything a run produced.
type Result struct {
	// Series is the power signal over the evaluation window (training
	// excluded).
	Series *metrics.Series
	// Jobs are the jobs that finished inside the evaluation window.
	Jobs []*workload.Job
	// Summary holds the paper's metrics computed against PMax.
	Summary metrics.Summary
	// ManagerStats are the control-loop counters.
	ManagerStats manager.Stats
	// Thresholds are the final learned thresholds; TrainingPeak is the
	// peak observed across the whole run.
	Thresholds   power.Thresholds
	TrainingPeak units.Watts
	// SenseTime is host CPU-wall time spent collecting and building
	// snapshots (Figure 5's management cost, in-process variant).
	SenseTime time.Duration
	// DroppedReadings counts fault-injected sample losses.
	DroppedReadings int
	// TheoreticalPeak is P_thy for this cluster.
	TheoreticalPeak units.Watts
	// Thermal is the accumulated thermal outcome; nil unless
	// ThermalEnabled.
	Thermal *thermal.Summary
	// FeedbackStats are the baseline controller's counters; nil unless
	// Controller == "feedback".
	FeedbackStats *feedback.Stats
	// TwoLevelStats are the two-level baseline's counters; nil unless
	// Controller == "twolevel".
	TwoLevelStats *TwoLevelStats
	// Trace is the recorded workload trace; nil unless RecordTrace.
	Trace *replay.Trace
	// Cabinets is the power-distribution outcome; nil unless Cabinets
	// was configured.
	Cabinets *pdist.Summary
	// Events logs the control loop's state transitions over the
	// evaluation window.
	Events *trace.EventLog
	// CycleSpans are the retained staged cycle timelines (sense →
	// classify → select → actuate → settle), newest last. Both backends
	// emit the same stage sequence for the same seed; durations are host
	// time and differ by transport.
	CycleSpans []obs.CycleSpan
}

// Run executes the configured training period followed by an evaluation
// window of the given duration, and returns the evaluation results. Run
// may be called once per System.
func (s *System) Run(eval time.Duration) (*Result, error) {
	if eval <= 0 {
		return nil, fmt.Errorf("core: evaluation duration must be positive")
	}
	if s.ran {
		return nil, fmt.Errorf("core: Run may only be called once")
	}
	s.ran = true
	if s.cfg.Training > 0 {
		if err := s.backend.RunUntil(s.cfg.Training); err != nil {
			return nil, err
		}
	}
	trainEnd := s.backend.Now()
	s.recording = true
	// The thermal and cabinet summaries cover the measured window only;
	// the (identical, uncapped) training period would dilute them.
	s.backend.BeginMeasurement()
	if err := s.backend.RunUntil(trainEnd + eval); err != nil {
		return nil, err
	}

	info := s.backend.Info()
	var jobs []*workload.Job
	for _, j := range info.FinishedJobs {
		if j.End() >= trainEnd {
			jobs = append(jobs, j)
		}
	}
	return &Result{
		Series:          s.series,
		Jobs:            jobs,
		Summary:         metrics.Summarise(s.series, s.cfg.PMax, jobs),
		ManagerStats:    s.mgr.Stats(),
		Thresholds:      s.learner.Thresholds(),
		TrainingPeak:    s.learner.LifetimePeak(),
		SenseTime:       s.senseTime,
		DroppedReadings: s.dropped,
		TheoreticalPeak: info.TheoreticalPeak,
		Thermal:         info.Thermal,
		FeedbackStats:   feedbackStats(s.fb),
		TwoLevelStats:   twoLevelStats(s.twolevel),
		Trace:           info.Trace,
		Cabinets:        info.Cabinets,
		Events:          &s.events,
		CycleSpans:      s.trace.Spans(0),
	}, nil
}

func feedbackStats(fb *feedback.Controller) *feedback.Stats {
	if fb == nil {
		return nil
	}
	st := fb.Stats()
	return &st
}

func twoLevelStats(tl *twoLevel) *TwoLevelStats {
	if tl == nil {
		return nil
	}
	st := tl.stats
	return &st
}

// Backend exposes the cluster backend. Tests, examples and benchmarks
// that need sim-only internals (the cluster, the engine) type-assert it
// to *backend.Sim.
func (s *System) Backend() backend.Backend { return s.backend }

// Traits reports the plant's static aggregate properties (P_thy, floor
// power, candidate count) without reaching through the backend seam.
func (s *System) Traits() backend.Traits { return s.backend.Traits() }

// Manager exposes the power manager.
func (s *System) Manager() *manager.Manager { return s.mgr }

// Obs exposes the run's instrument registry (counters, gauges and
// cycle-stage histograms shared with the manager).
func (s *System) Obs() *obs.Registry { return s.reg }

// CycleTrace exposes the staged cycle recorder.
func (s *System) CycleTrace() *obs.CycleRecorder { return s.trace }

// Learner exposes the threshold learner.
func (s *System) Learner() *power.Learner { return s.learner }

// Close releases backend resources — a no-op on the sim backend, daemon
// shutdown (agents, manager, fault network) on the daemon backend. Safe
// to call more than once.
func (s *System) Close() error { return s.backend.Close() }
