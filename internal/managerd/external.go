package managerd

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
)

// External control mode (Config.ExternalControl): the daemon keeps its
// whole transport stack — accept loop, per-connection readers, node table,
// the cycle's writers and per-node senders, the cycle's sweep (health,
// sensing, command retry/reconcile/adoption) — but runs no control law of
// its own. An external driver (the daemon backend in internal/backend)
// owns the clock and the algorithm:
//
//	driver: since := time.Now() → agents push one sample each
//	driver: wait until SamplesReceived caught up
//	driver: cyc := StartExternalCycle(since)
//	core:   readings := cyc.Readings()      // sensing, over the wire
//	core:   mgr.Cycle(..., cyc)             // Algorithm 1, one control law
//	driver: cyc.Finish(timeout)             // fan-out + acks settled
//
// Freshness is a time cut the driver picks, not StaleAfter: between
// virtual-time cycles almost no wall time passes, so StaleAfter cannot
// tell a node that reported this cycle from one that dropped out of the
// candidate set three cycles ago, but "arrived after the driver started
// pushing" can. The cut is the same one the wall-clock loop makes at
// t0 − StaleAfter, so a hello landing after it counts as a fresh reading
// in both; a driver that registers every agent before its first cycle, as
// the daemon backend does, never sees one.

// SamplesReceived reports how many agent samples the daemon has accepted
// over the wire; the external driver polls it to know when a cycle's
// pushes have all landed.
func (s *Server) SamplesReceived() int64 { return s.samplesRecv.Value() }

// ExternalCycle is one externally driven control cycle. It implements
// manager.Actuator: commands issued through it are tagged with the
// cycle's fan-out tracker, so Finish can wait for their delivery.
type ExternalCycle struct {
	s        *Server
	fan      *fanout
	span     *obs.CycleHandle
	t0       time.Time
	readings []manager.AgentReading
}

// StartExternalCycle runs the control loop's own sweep and upkeep, taking
// the readings that arrived at or after since, and snapshots the
// candidates among them. An externally controlled daemon's sweep collects
// the fresh readings as it walks (Config.ExternalControl); the wall-clock
// loop's does not. It must not overlap another external cycle or the
// internal control loop (cycleMu is held only while the shared sweep
// scratch is in use, not until Finish).
func (s *Server) StartExternalCycle(since time.Time) *ExternalCycle {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	t0 := time.Now()
	cycleN := int(s.cycleN.Add(1))
	span := s.trace.Begin()
	cyc := &ExternalCycle{s: s, fan: s.newFanout(t0, span), span: span, t0: t0}

	parts := s.sweep(cycleN, t0, since)
	// The control-law stages (classify/select/actuate) are recorded by the
	// external driver's own recorder.
	p, _, _ := s.sensed(parts, span, t0)
	// The walk collected every fresh reading; the candidates among them are
	// the ones the snapshot holds, in the same order, so one cursor over
	// the snapshot drops the quarantined.
	nodes, j := s.snap.Nodes, 0
	for i := range parts {
		for _, r := range parts[i].readings {
			if j < len(nodes) && nodes[j].ID == r.ID {
				cyc.readings = append(cyc.readings, r)
				j++
			}
		}
	}
	// The sweep yields registration order, shard by shard; the control law's
	// contract is node-ID order (deterministic policy tie-breaks).
	slices.SortFunc(cyc.readings, func(a, b manager.AgentReading) int { return cmp.Compare(a.ID, b.ID) })
	s.upkeep(parts, cyc.fan)
	s.lastPowerW.Set(float64(p))
	if s.learner == nil {
		s.lifetimePeakW.Max(float64(p))
	}
	return cyc
}

// Readings returns the cycle's candidates in node-ID order: the samples
// that arrived since the cycle's cut, less any from quarantined nodes
// (those still count in last_power_w).
func (c *ExternalCycle) Readings() []manager.AgentReading { return c.readings }

// SetNodeLevel implements manager.Actuator over the wire, tagged with
// this cycle's fan-out tracker.
func (c *ExternalCycle) SetNodeLevel(id node.ID, level int) error {
	return actuator{c.s, c.fan}.SetNodeLevel(id, level)
}

// Finish closes the cycle: it waits for the command fan-out to complete
// (every command written or abandoned to the retry path) and then for
// every in-flight command to be acknowledged, so the commanded levels
// are in force on the far side before the driver advances virtual time —
// matching the simulation backend's synchronous actuation semantics.
func (c *ExternalCycle) Finish(timeout time.Duration) error {
	s := c.s
	defer s.endCycle(c.span, c.t0)
	c.fan.finishEnqueue()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-c.fan.done:
	case <-deadline.C:
		return fmt.Errorf("managerd: external cycle fan-out incomplete after %v", timeout)
	}
	end := time.Now().Add(timeout)
	for s.UnackedCommands() > 0 {
		if time.Now().After(end) {
			return fmt.Errorf("managerd: %d commands unacked after %v", s.UnackedCommands(), timeout)
		}
		// Yield, do not sleep: the agents acking are runnable now, and
		// a sub-millisecond sleep in an otherwise idle process lasts a
		// full timer tick.
		runtime.Gosched()
	}
	return nil
}

// UnackedCommands counts commands in flight: issued (or retried) but not
// yet acknowledged by their agent. It reads each shard's tally, not its
// records: Finish and the benchmark's ack wait poll it while the acks
// they wait for need the same shard locks.
func (s *Server) UnackedCommands() int {
	n := 0
	for _, sh := range s.nodes.shards {
		sh.mu.Lock()
		n += sh.unacked
		sh.mu.Unlock()
	}
	return n
}
