package backend

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/pdist"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// plant is the simulated physical system both backends share: the node
// population, the scheduler feeding it jobs, the facility meter, the
// optional cabinet/thermal models, and the discrete-event engine that owns
// virtual time. Both backends embed it, so the Backend methods that only
// read the plant (Now, ReadMeter, Stream, BeginMeasurement, Traits, Info)
// are written here once. The Sim backend touches it from the
// single engine goroutine; the Daemon backend's agents also reach it from
// wire-handler goroutines (command application), so every access goes
// through mu.
//
// Construction draws the same named random streams in the same roles as
// the pre-seam core.System ("nodes", "workload", "jobs", "meter");
// streams depend only on (seed, name), so the control side drawing
// "policy"/"faults" from the same seed cannot perturb the plant and the
// split stays bit-identical to the monolithic wiring.
type plant struct {
	cfg     Config
	streams *sim.Streams
	engine  *sim.Engine

	mu       sync.Mutex
	cluster  *cluster.Cluster
	sched    *scheduler.Scheduler
	meter    *power.Meter
	recorder *replay.Recorder // non-nil when RecordTrace
	cabinets *pdist.Monitor   // nil unless Cabinets > 0
	cabBuf   []units.Watts
	therm    *thermal.Tracker // nil when thermal modelling is off
	thermBuf []units.Watts
}

// newPlant builds the plant. The construction order and stream names
// mirror the pre-seam core.New exactly.
func newPlant(cfg Config) (*plant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	streams := sim.NewStreams(cfg.Seed)

	cl, err := cluster.New(cluster.Config{
		Nodes:       cfg.Nodes,
		Model:       cfg.Model,
		ModelFor:    cfg.ModelFor,
		Privileged:  cfg.Privileged,
		ModelError:  cfg.ModelError,
		JitterSigma: cfg.PowerJitter,
		Rng:         streams.Get("nodes"),
	})
	if err != nil {
		return nil, err
	}
	if cfg.CandidateCount >= 0 {
		if err := cl.SetCandidateCount(cfg.CandidateCount); err != nil {
			return nil, err
		}
	}

	suite := workload.NPB(cfg.Class)
	if len(cfg.Benchmarks) > 0 {
		var filtered []workload.Spec
		for _, name := range cfg.Benchmarks {
			s, err := workload.SpecByName(suite, name)
			if err != nil {
				return nil, err
			}
			filtered = append(filtered, s)
		}
		suite = filtered
	}
	gen := scheduler.RandomGenerator(streams.Get("workload"), suite)
	if cfg.PrivilegedJobFraction > 0 {
		gen = scheduler.PriorityGenerator(streams.Get("workload"), suite, cfg.PrivilegedJobFraction)
	}
	if cfg.WorkloadTrace != nil {
		player, err := replay.NewPlayer(cfg.WorkloadTrace, suite, gen)
		if err != nil {
			return nil, err
		}
		gen = player.Generator()
	}
	var recorder *replay.Recorder
	if cfg.RecordTrace {
		recorder = replay.NewRecorder(gen, replay.Header{
			Suite:   "NPB-" + string(cfg.Class),
			Comment: fmt.Sprintf("recorded by core.System seed=%d", cfg.Seed),
		})
		gen = recorder.Generator()
	}
	var placement scheduler.Placement
	if cfg.Placement == "spread" {
		placement = scheduler.CabinetSpread(cfg.Nodes / cfg.Cabinets)
	}
	sched, err := scheduler.New(cl.Nodes(), scheduler.Config{
		Generator: gen,
		JobConfig: workload.JobConfig{
			RampUp: cfg.JobRampUp,
			Jitter: cfg.JobJitter,
			Rng:    streams.Get("jobs"),
		},
		IdleLoad:     cfg.IdleLoad,
		ProcsPerNode: cfg.ProcsPerNode,
		Placement:    placement,
	})
	if err != nil {
		return nil, err
	}

	p := &plant{
		cfg:      cfg,
		streams:  streams,
		engine:   sim.NewEngine(),
		cluster:  cl,
		sched:    sched,
		meter:    power.NewMeter(cl, cfg.MeterOverhead, cfg.MeterNoise, streams.Get("meter")),
		recorder: recorder,
	}
	if cfg.Cabinets > 0 {
		breaker := cfg.CabinetBreaker
		if breaker == 0 {
			breaker = units.Watts(1.15 * float64(cfg.PMax) / float64(cfg.Cabinets))
		}
		mon, err := pdist.NewMonitor(pdist.Layout{
			Cabinets: cfg.Cabinets,
			NodesPer: cfg.Nodes / cfg.Cabinets,
		}, breaker)
		if err != nil {
			return nil, err
		}
		p.cabinets = mon
		p.cabBuf = make([]units.Watts, cfg.Nodes)
	}
	if cfg.ThermalEnabled {
		params := cfg.Thermal
		if params == (thermal.Params{}) {
			params = thermal.Tianhe()
		}
		tr, err := thermal.NewTracker(cfg.Nodes, params)
		if err != nil {
			return nil, err
		}
		p.therm = tr
		p.thermBuf = make([]units.Watts, cfg.Nodes)
	}
	return p, nil
}

// tick advances physics and workload by one TickPeriod at virtual time
// now (now is the instant the tick fires, i.e. the end of the interval).
func (p *plant) tick(now time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dt := p.cfg.TickPeriod
	p.cluster.Tick(dt)    // account the previous interval's load
	p.sched.Tick(now, dt) // finish/start jobs, install new loads
	if p.cabinets != nil {
		for i, n := range p.cluster.Nodes() {
			p.cabBuf[i] = n.TruePower()
		}
		if err := p.cabinets.Observe(dt, p.cabBuf); err != nil {
			panic(err) // sizes match by construction
		}
	}
	if p.therm != nil {
		for i, n := range p.cluster.Nodes() {
			p.thermBuf[i] = n.TruePower()
		}
		if err := p.therm.Step(dt, p.thermBuf); err != nil {
			panic(err) // sizes match by construction
		}
		// Close the §I.A positive feedback loop: hotter nodes draw more.
		for i, n := range p.cluster.Nodes() {
			n.SetThermalFactor(p.therm.LeakageFactor(i))
		}
	}
}

// Now reports the current virtual time.
func (p *plant) Now() time.Duration { return p.engine.Now() }

// ReadMeter samples the facility meter under the plant lock (metering
// stays plant-side on either transport: the paper's facility meter is
// infrastructure, not an agent).
func (p *plant) ReadMeter() units.Watts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meter.Read()
}

// Stream returns the named deterministic random stream.
func (p *plant) Stream(name string) *rand.Rand { return p.streams.Get(name) }

// BeginMeasurement resets the measured-window accumulators at the
// training/evaluation boundary: the (identical, uncapped) training period
// would dilute the thermal and cabinet summaries.
func (p *plant) BeginMeasurement() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.therm != nil {
		p.therm.ResetAccumulators()
	}
	if p.cabinets != nil {
		p.cabinets.Reset()
	}
}

// Traits reports the plant's static aggregate properties.
func (p *plant) Traits() Traits {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := Traits{
		Nodes:            p.cluster.Size(),
		Candidates:       len(p.cluster.Candidates()),
		TheoreticalPeak:  p.cluster.TheoreticalPeak(),
		FloorPower:       p.cluster.FloorPower(),
		FlooredWorstCase: p.cluster.FlooredWorstCase(),
	}
	if nodes := p.cluster.Nodes(); len(nodes) > 0 {
		t.NodeModel = nodes[0].Model()
	}
	return t
}

// Info reads the run's accumulated outcomes.
func (p *plant) Info() Info {
	p.mu.Lock()
	defer p.mu.Unlock()
	in := Info{
		FinishedJobs:    p.sched.Finished(),
		TheoreticalPeak: p.cluster.TheoreticalPeak(),
	}
	if p.therm != nil {
		sum := p.therm.Summarise()
		in.Thermal = &sum
	}
	if p.cabinets != nil {
		sum := p.cabinets.Summarise()
		in.Cabinets = &sum
	}
	if p.recorder != nil {
		in.Trace = p.recorder.Trace()
	}
	return in
}
