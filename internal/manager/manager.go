// Package manager implements the global power manager: the power capping
// algorithm of §III.B (Algorithm 1) driving a target set selection policy,
// plus the sensing path that turns per-node agent readings into the policy
// snapshot.
//
// The manager is transport-agnostic: the in-process Collector feeds it in
// the simulator, and the networked managerd feeds it the same AgentReading
// values decoded from TCP. Actuation goes through the Actuator interface
// for the same reason.
//
// Telemetry goes through the obs registry: the manager registers its
// instruments (cycles, state residency, degrade/restore ops, selection
// cost) at construction and Stats is derived from them, so the simulator,
// managerd's StatusReply and the /metrics endpoint all read one source of
// truth. Each Cycle also records its classify/select/actuate stages on
// the configured CycleRecorder.
package manager

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

// Actuator applies power state commands to nodes. Implementations: the
// cluster (simulation) or the agent command channel (daemons).
type Actuator interface {
	SetNodeLevel(id node.ID, level int) error
}

// Config parametrises the capping algorithm.
type Config struct {
	// Tg is the number of consecutive green cycles after which the system
	// is considered steady green and degraded nodes regain one level.
	// The paper's experiments use 10.
	Tg int
	// Policy selects A_target in the yellow state.
	Policy policy.Policy
	// Obs receives the manager's instruments. When nil the manager uses a
	// private registry so Stats stays registry-derived either way.
	Obs *obs.Registry
	// Trace, when non-nil, receives classify/select/actuate stage spans
	// for the cycle currently open on it.
	Trace *obs.CycleRecorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tg <= 0 {
		return fmt.Errorf("manager: Tg must be positive, got %d", c.Tg)
	}
	if c.Policy == nil {
		return fmt.Errorf("manager: nil policy")
	}
	return nil
}

// Stats is a snapshot of the control-loop statistics, derived from the
// obs registry instruments on demand.
type Stats struct {
	Cycles       int
	GreenCycles  int
	YellowCycles int
	RedCycles    int
	// RedEntries counts transitions into the red state — the paper
	// reports this stayed zero under capping.
	RedEntries int
	// DegradeOps / RestoreOps count individual node level changes.
	DegradeOps int
	RestoreOps int
	// SelectTime accumulates host time spent in policy selection; the
	// Figure 5 harness reads it together with collection time, and
	// managerd surfaces it as select_micros.
	SelectTime time.Duration
}

// Manager runs Algorithm 1.
type Manager struct {
	cfg      Config
	degraded map[node.ID]bool // A_degraded
	timeg    int              // Time_g, in cycles
	lastSt   power.State
	started  bool

	// Registry instruments, cached at construction; names match the
	// snake_case wire.StatusReply tags they surface under.
	cycles       *obs.Counter
	greenCycles  *obs.Counter
	yellowCycles *obs.Counter
	redCycles    *obs.Counter
	redEntries   *obs.Counter
	degradeOps   *obs.Counter
	restoreOps   *obs.Counter
	selectMicros *obs.Gauge // accumulated µs, fractional to avoid truncation
}

// New creates a manager. A_degraded starts empty and Time_g at zero, per
// Algorithm 1's initialisation.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	r := cfg.Obs
	return &Manager{
		cfg:          cfg,
		degraded:     make(map[node.ID]bool),
		cycles:       r.Counter("cycles"),
		greenCycles:  r.Counter("green_cycles"),
		yellowCycles: r.Counter("yellow_cycles"),
		redCycles:    r.Counter("red_cycles"),
		redEntries:   r.Counter("red_entries"),
		degradeOps:   r.Counter("degrade_ops"),
		restoreOps:   r.Counter("restore_ops"),
		selectMicros: r.Gauge("select_micros"),
	}, nil
}

// Stats derives the statistics snapshot from the registry instruments.
func (m *Manager) Stats() Stats {
	return Stats{
		Cycles:       int(m.cycles.Value()),
		GreenCycles:  int(m.greenCycles.Value()),
		YellowCycles: int(m.yellowCycles.Value()),
		RedCycles:    int(m.redCycles.Value()),
		RedEntries:   int(m.redEntries.Value()),
		DegradeOps:   int(m.degradeOps.Value()),
		RestoreOps:   int(m.restoreOps.Value()),
		SelectTime:   time.Duration(m.selectMicros.Value() * float64(time.Microsecond)),
	}
}

// Obs returns the registry holding the manager's instruments.
func (m *Manager) Obs() *obs.Registry { return m.cfg.Obs }

// Degraded returns the current size of A_degraded.
func (m *Manager) Degraded() int { return len(m.degraded) }

// Adopt inserts a node into A_degraded without issuing a command. The
// reconciliation layer uses it for nodes found below their top level with
// no command on record — a journal-recovered restart, or an agent whose
// dead-man switch self-degraded it during a manager outage — so the
// steady-green restore path lifts them back instead of orphaning them at
// a low level forever.
func (m *Manager) Adopt(id node.ID) { m.degraded[id] = true }

// Policy returns the configured selection policy.
func (m *Manager) Policy() policy.Policy { return m.cfg.Policy }

// Action records one node command issued during a cycle.
type Action struct {
	Node  node.ID
	Level int // the target level l_i
}

// Cycle executes one control cycle of Algorithm 1 against the given power
// reading, thresholds and sensing snapshot, issuing commands through act.
// It returns the classified state and the actions taken.
//
// Actuation errors on individual nodes are counted but do not abort the
// cycle: a node that refuses a command (e.g. it just left A_candidate)
// must not stall capping of the others.
func (m *Manager) Cycle(p units.Watts, thr power.Thresholds, snap *policy.Snapshot, act Actuator) (power.State, []Action, error) {
	if err := thr.Validate(); err != nil {
		return power.Green, nil, err
	}
	tc := time.Now()
	st := thr.Classify(p)
	m.cfg.Trace.Stage(obs.StageClassify, time.Since(tc), st.String())
	m.cycles.Inc()
	if st == power.Red && (!m.started || m.lastSt != power.Red) {
		m.redEntries.Inc()
	}
	m.lastSt, m.started = st, true

	var actions []Action
	switch st {
	case power.Green:
		m.greenCycles.Inc()
		m.timeg++
		m.cfg.Trace.Stage(obs.StageSelect, 0, "")
		ta := time.Now()
		if m.timeg >= m.cfg.Tg && len(m.degraded) > 0 {
			actions = m.restore(snap.Nodes, act)
		}
		m.cfg.Trace.Stage(obs.StageActuate, time.Since(ta), fmt.Sprintf("actions=%d", len(actions)))

	case power.Yellow:
		m.yellowCycles.Inc()
		m.timeg = 0
		t0 := time.Now()
		if snap.Jobs == nil {
			snap.Jobs = AggregateJobs(snap.Nodes)
		}
		targets := m.cfg.Policy.Select(snap)
		dSel := time.Since(t0)
		m.selectMicros.Add(float64(dSel) / float64(time.Microsecond))
		m.cfg.Trace.Stage(obs.StageSelect, dSel, fmt.Sprintf("targets=%d", len(targets)))
		ta := time.Now()
		actions = make([]Action, 0, len(targets))
		for _, pos := range targets {
			n := &snap.Nodes[pos]
			if n.Idle || n.AtLowest {
				// Defensive: Algorithm 1 requires valid policies not
				// to select idle or floor-level nodes; filter anyway.
				continue
			}
			if err := act.SetNodeLevel(n.ID, n.Level-1); err != nil {
				continue
			}
			m.degraded[n.ID] = true
			m.degradeOps.Inc()
			actions = append(actions, Action{Node: n.ID, Level: n.Level - 1})
		}
		m.cfg.Trace.Stage(obs.StageActuate, time.Since(ta), fmt.Sprintf("actions=%d", len(actions)))

	case power.Red:
		m.redCycles.Inc()
		m.timeg = 0
		m.cfg.Trace.Stage(obs.StageSelect, 0, "")
		ta := time.Now()
		// Maximal strength: every candidate to its lowest power state,
		// A_degraded := A_candidate.
		for _, n := range snap.Nodes {
			if n.Level > 0 {
				if err := act.SetNodeLevel(n.ID, 0); err != nil {
					continue
				}
				m.degradeOps.Inc()
				actions = append(actions, Action{Node: n.ID, Level: 0})
			}
			m.degraded[n.ID] = true
		}
		m.cfg.Trace.Stage(obs.StageActuate, time.Since(ta), fmt.Sprintf("actions=%d", len(actions)))
	}
	return st, actions, nil
}

// restore raises every degraded node by one level (steady green), in ID
// order. Nodes reaching their top level leave A_degraded. Nodes absent from
// this cycle's snapshot — a lost agent sample, or a node that left the
// candidate set — are skipped but retained: forgetting them would orphan a
// degraded node at a low level forever after a single dropped reading.
func (m *Manager) restore(nodes []policy.NodeState, act Actuator) []Action {
	pos := make([]int, 0, len(m.degraded))
	for p := range nodes {
		if m.degraded[nodes[p].ID] {
			pos = append(pos, p)
		}
	}
	slices.SortFunc(pos, func(a, b int) int { return cmp.Compare(nodes[a].ID, nodes[b].ID) })

	actions := make([]Action, 0, len(pos))
	for _, p := range pos {
		n := &nodes[p]
		next := n.Level + 1
		if next > n.MaxLevel {
			delete(m.degraded, n.ID)
			continue
		}
		if err := act.SetNodeLevel(n.ID, next); err != nil {
			continue
		}
		m.restoreOps.Inc()
		actions = append(actions, Action{Node: n.ID, Level: next})
		if next == n.MaxLevel {
			delete(m.degraded, n.ID)
		}
	}
	return actions
}
