// Package backend defines the transport-agnostic cluster backend seam:
// everything the control law in internal/core needs from the managed
// system — sensing (agent readings for the candidate set), actuation
// (power level commands), facility metering, and virtual-time
// advancement — behind one interface with two implementations.
//
// The Sim backend is the in-process simulation path (cluster + collector
// + discrete-event engine), behaviour-preserving with respect to the
// pre-seam core.System: same construction order, same named random
// streams, bit-identical results for the same seed.
//
// The Daemon backend runs the identical simulated plant behind a real
// managerd.Server and N real agentd Agents wired over internal/faultnet:
// sensing readings travel agent→manager as wire samples, and actuation
// travels manager→agent as wire commands that the agents apply back onto
// the plant. A virtual-time bridge drives plant ticks and pushes one
// sample per candidate per control cycle, then waits for command
// acknowledgements before virtual time advances — so a seeded workload
// replays identically over the wire and the paper's metrics can score the
// daemon plane (experiment E11).
//
// One control law, two transports: Algorithm 1 runs once, in
// internal/core against this interface, never per-backend.
package backend

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pdist"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config describes the managed plant both backends build: the node
// population, the workload, the facility meter, and the physical-model
// extensions. core.Config embeds it and adds the control half (policy,
// thresholds, Tg, training).
type Config struct {
	// Seed drives every named random stream of the plant. Streams are
	// derived by name (sim.Streams), so the control side drawing its own
	// streams from the same seed never perturbs the plant's.
	Seed uint64

	// Nodes is |A_total|; Privileged nodes are permanently
	// uncontrollable; CandidateCount (when ≥ 0) restricts A_candidate to
	// that many evenly spaced nodes, and a negative count keeps every
	// non-privileged node (Figure 6 sweeps it).
	Nodes          int
	Privileged     int
	CandidateCount int

	// Model is the per-node device/power model; ModelFor optionally
	// overrides it per node index (heterogeneous clusters, which
	// Algorithm 1 supports by §III.B property 1).
	Model    power.Model
	ModelFor func(i int) power.Model

	// ModelError and PowerJitter shape the per-node truth-vs-model gap.
	ModelError  float64
	PowerJitter float64

	// Class (D = paper, C = 16× shorter), Benchmarks (a subset of the
	// suite by name) and ProcsPerNode (MPI placement density; zero is one
	// process per core) select the NPB workload.
	Class        workload.Class
	Benchmarks   []string
	ProcsPerNode int

	// PrivilegedJobFraction marks this fraction of generated jobs as
	// high-priority (their nodes pin out of A_candidate while running).
	PrivilegedJobFraction float64

	// WorkloadTrace replays a recorded trace, falling back to the seeded
	// generator once it is exhausted; RecordTrace captures the generated
	// one (returned in Info.Trace).
	WorkloadTrace *replay.Trace
	RecordTrace   bool

	// JobRampUp/JobJitter shape job power behaviour; IdleLoad is the
	// background load of free nodes.
	JobRampUp time.Duration
	JobJitter float64
	IdleLoad  node.Load

	// Placement ("firstfit", the default, or "spread" round-robin across
	// cabinets), Cabinets and CabinetBreaker configure the
	// power-distribution model. PMax is the provision capability (§II.D);
	// the plant uses it only to derive a default breaker rating (15%
	// over an even split) when CabinetBreaker is zero, and the control
	// side scores ΔP×T against it and seeds the learner's P_peak with it.
	Placement      string
	Cabinets       int
	CabinetBreaker units.Watts
	PMax           units.Watts

	// MeterOverhead/MeterNoise configure the facility meter.
	MeterOverhead float64
	MeterNoise    float64

	// ThermalEnabled/Thermal configure the §I.A thermal model; a zero
	// Thermal selects the Tianhe defaults.
	ThermalEnabled bool
	Thermal        thermal.Params

	// ControlPeriod is the manager cycle τ; TickPeriod the workload
	// advancement step. The backend owns the schedule: ticks fire before
	// the control callback at shared instants.
	ControlPeriod time.Duration
	TickPeriod    time.Duration
}

// Validate reports whether the plant can be built and ticked: both
// backends call it before constructing anything.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("backend: Nodes must be positive")
	}
	if c.ControlPeriod <= 0 || c.TickPeriod <= 0 {
		return fmt.Errorf("backend: ControlPeriod and TickPeriod must be positive")
	}
	if c.PrivilegedJobFraction < 0 || c.PrivilegedJobFraction > 1 {
		return fmt.Errorf("backend: PrivilegedJobFraction %v outside [0,1]", c.PrivilegedJobFraction)
	}
	switch c.Placement {
	case "", "firstfit", "spread":
	default:
		return fmt.Errorf("backend: unknown placement %q (want firstfit or spread)", c.Placement)
	}
	if c.Cabinets < 0 || (c.Cabinets > 0 && c.Nodes%c.Cabinets != 0) {
		return fmt.Errorf("backend: %d nodes do not divide into %d cabinets", c.Nodes, c.Cabinets)
	}
	if c.Placement == "spread" && c.Cabinets == 0 {
		return fmt.Errorf("backend: spread placement requires Cabinets > 0")
	}
	return c.Model.Validate()
}

// Traits are the static aggregate properties of the constructed plant
// that the §II.D assumption checks are stated over. They are computed at
// construction; reading them never touches live state.
type Traits struct {
	// Nodes is |A_total|; Candidates is |A_candidate| at construction.
	Nodes      int
	Candidates int
	// TheoreticalPeak is P_thy = Σ P_i (Necessity).
	TheoreticalPeak units.Watts
	// FloorPower is the all-idle, all-floored draw (Operability).
	FloorPower units.Watts
	// FlooredWorstCase is the draw with every candidate floored at full
	// load and everything else at worst case (Controllability).
	FlooredWorstCase units.Watts
	// NodeModel is node 0's device model (the assumption checks size one
	// representative job with it).
	NodeModel power.Model
}

// Info is what a finished run reads back from the plant: the outcomes
// that accumulated behind the seam.
type Info struct {
	FinishedJobs    []*workload.Job
	TheoreticalPeak units.Watts
	Thermal         *thermal.Summary // nil unless thermal modelling is on
	Cabinets        *pdist.Summary   // nil unless Cabinets configured
	Trace           *replay.Trace    // nil unless RecordTrace
}

// Backend is the transport seam. It is also the manager.Actuator the
// control law issues its level commands through — on the Sim backend a
// command is a direct node state change, on the Daemon backend a wire
// command to the node's agent.
//
// The contract the control law relies on:
//
//   - Start registers the plant tick and the control callback on the
//     backend's virtual clock; at shared instants ticks fire first.
//   - Sense may only be called from inside the control callback, and
//     returns the candidate readings for that instant in node-ID order.
//   - SetNodeLevel may only be called from inside the control callback;
//     the commanded levels are in force on the plant before the next
//     tick fires (the Daemon backend waits for command acks).
//   - RunUntil advances virtual time, firing ticks and control
//     callbacks, and returns the first transport error (always nil on
//     the Sim backend).
type Backend interface {
	manager.Actuator

	// Observe attaches the staged-cycle recorder: the backend brackets
	// every control cycle with Begin/End and records its transport
	// stages (settle) into it, so both transports emit the same staged
	// timeline for the same control law. Call before Start; nil (or not
	// calling at all) disables recording.
	Observe(rec *obs.CycleRecorder)
	// Start registers the control callback; call exactly once.
	Start(control func(now time.Duration)) error
	// RunUntil advances virtual time to t.
	RunUntil(t time.Duration) error
	// Now reports the current virtual time.
	Now() time.Duration

	// ReadMeter samples the facility power meter.
	ReadMeter() units.Watts
	// Sense returns the candidate agent readings for this control
	// instant, in node-ID order.
	Sense(now time.Duration) []manager.AgentReading
	// Stream returns the named deterministic random stream derived from
	// the plant seed (the control side's policy and fault streams).
	Stream(name string) *rand.Rand

	// BeginMeasurement resets the measured-window accumulators (thermal,
	// cabinet) at the training/evaluation boundary.
	BeginMeasurement()
	// Traits reports the plant's static aggregate properties.
	Traits() Traits
	// Info reads the run's accumulated outcomes.
	Info() Info

	// Close releases transport resources (daemon goroutines, network);
	// a no-op on the Sim backend. Safe to call more than once.
	Close() error
}

// New constructs the named backend: "" or "sim" for the in-process
// simulation path, "daemon" for the managerd/agentd wire path.
func New(name string, cfg Config) (Backend, error) {
	switch name {
	case "", "sim":
		return NewSim(cfg)
	case "daemon":
		return NewDaemon(cfg)
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (want sim or daemon)", name)
	}
}
