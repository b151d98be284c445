package backend

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Sim is the in-process simulation backend: the plant driven directly by
// a discrete-event engine, sensed by the in-process Collector and
// actuated by direct node state changes. It reproduces the pre-seam
// core.System wiring exactly — same event registration order, same
// stream names — so results are bit-identical for the same seed.
type Sim struct {
	*plant
	coll    *manager.Collector
	rec     *obs.CycleRecorder
	started bool
}

// NewSim constructs the simulation backend.
func NewSim(cfg Config) (*Sim, error) {
	p, err := newPlant(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{
		plant: p,
		coll:  manager.NewCollector(p.cluster, p.sched),
	}, nil
}

// Observe attaches the staged-cycle recorder. Call before Start.
func (s *Sim) Observe(rec *obs.CycleRecorder) { s.rec = rec }

// Start registers the plant tick and the control callback. Order
// matters: the tick event must fire before the control event at shared
// instants, so the manager sees counters that include the latest
// interval.
func (s *Sim) Start(control func(now time.Duration)) error {
	if s.started {
		return fmt.Errorf("backend: Start called twice")
	}
	s.started = true
	s.engine.Every(s.cfg.TickPeriod, func(e *sim.Engine) { s.tick(e.Now()) })
	s.engine.Every(s.cfg.ControlPeriod, func(e *sim.Engine) {
		span := s.rec.Begin()
		control(e.Now())
		// Direct node actuation is synchronous: commands are in force the
		// moment SetNodeLevel returns, so settling costs nothing.
		span.Stage(obs.StageSettle, 0, "")
		span.End()
	})
	return nil
}

// RunUntil advances virtual time to t.
func (s *Sim) RunUntil(t time.Duration) error {
	s.engine.RunUntil(t)
	return nil
}

// Sense samples every candidate node at virtual time now (node-ID
// order, the Collector's iteration order).
func (s *Sim) Sense(now time.Duration) []manager.AgentReading {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coll.Collect(now)
}

// SetNodeLevel implements manager.Actuator by direct node actuation.
func (s *Sim) SetNodeLevel(id node.ID, level int) error {
	n := s.cluster.Node(id)
	if n == nil {
		return &manager.UnknownNodeError{ID: id}
	}
	return n.SetLevel(level)
}

// Close is a no-op: the Sim backend owns no goroutines or sockets.
func (s *Sim) Close() error { return nil }

// Cluster exposes the underlying cluster for tests, examples and
// benchmarks that inspect node state directly.
func (s *Sim) Cluster() *cluster.Cluster { return s.cluster }

// Scheduler exposes the job subsystem.
func (s *Sim) Scheduler() *scheduler.Scheduler { return s.sched }

// Engine exposes the simulation engine (custom instrumentation, e.g.
// sampling extra series on a schedule before calling Run).
func (s *Sim) Engine() *sim.Engine { return s.engine }
