package managerd

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/units"
)

// External control mode (Config.ExternalControl): the daemon keeps its
// whole transport stack — accept loop, per-connection readers, sharded
// node store, per-node sender goroutines, command seq/ack/retry — but
// runs no control law of its own. An external driver (the daemon backend
// in internal/backend) owns the clock and the algorithm:
//
//	driver: BeginSenseEpoch → agents push one sample each
//	driver: wait until SamplesReceived caught up
//	driver: cyc := StartExternalCycle()
//	core:   readings := cyc.Readings()      // sensing, over the wire
//	core:   mgr.Cycle(..., cyc)             // Algorithm 1, one control law
//	driver: cyc.Finish(timeout)             // fan-out + acks settled
//
// Freshness is epoch-based, not wall-clock: between virtual-time cycles
// almost no wall time passes, so StaleAfter cannot distinguish a node
// that reported this cycle from one that dropped out of the candidate
// set three cycles ago. Each sample is stamped with the sense epoch it
// arrived in, and Readings returns only the current epoch's.

// BeginSenseEpoch opens a new sense epoch and returns its number.
// Samples arriving from now on are stamped with it.
func (s *Server) BeginSenseEpoch() uint64 { return s.extEpoch.Add(1) }

// SamplesReceived reports how many agent samples the daemon has accepted
// over the wire; the external driver polls it to know when an epoch's
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

// StartExternalCycle runs the per-cycle transport upkeep — health
// classification, retry of unacked commands, reconciliation of drifted
// levels — and snapshots the current sense epoch's readings. It must not
// overlap another external cycle or the internal control loop.
func (s *Server) StartExternalCycle() *ExternalCycle {
	t0 := time.Now()
	cycleN := int(s.cycleN.Add(1))
	span := s.trace.Begin()
	cyc := &ExternalCycle{s: s, fan: s.newFanout(t0, span), span: span, t0: t0}
	epoch := s.extEpoch.Load()

	type resend struct {
		ac    *agentConn
		level int
		seq   uint64
	}
	type part struct {
		readings []manager.AgentReading
		resends  []resend
	}
	parts := make([]part, len(s.nodes.shards))
	s.forEachShard(func(i int, sh *shard) {
		g := &parts[i]
		drift := 0
		sh.mu.Lock()
		updateHealth(sh, t0, &s.cfg)
		for id, ac := range sh.agents {
			if ac.seen && ac.lastEpoch == epoch && !quarantinedIn(sh, id) {
				g.readings = append(g.readings, ac.last)
			}
			cs := sh.cmds[id]
			if ac.seen && cs != nil && ac.last.Level != cs.level {
				drift++
			}
			if cs == nil || !ac.seen || quarantinedIn(sh, id) {
				continue
			}
			switch {
			case !cs.acked && cycleN > cs.sentCycle:
				cs.retries++
				cs.sentCycle = cycleN
				s.cmdRetries.Add(1)
				g.resends = append(g.resends, resend{ac, cs.level, cs.seq})
			case cs.acked && ac.last.Level != cs.level && cycleN >= cs.sentCycle+2:
				cs.seq = s.seq.Add(1)
				cs.acked = false
				cs.sentCycle = cycleN
				s.reconciles.Add(1)
				g.resends = append(g.resends, resend{ac, cs.level, cs.seq})
			}
		}
		sh.drifted = drift
		sh.mu.Unlock()
	})

	var p units.Watts
	for i := range parts {
		cyc.readings = append(cyc.readings, parts[i].readings...)
		for _, r := range parts[i].readings {
			p += s.cfg.Model.Estimate(r.Delta, r.Level)
		}
		for _, r := range parts[i].resends {
			s.dispatch(r.ac, r.level, r.seq, cyc.fan)
		}
	}
	// Map iteration scattered the readings; the control law's contract is
	// node-ID order (deterministic policy tie-breaks).
	sort.Slice(cyc.readings, func(a, b int) bool { return cyc.readings[a].ID < cyc.readings[b].ID })
	// The transport's sensing stage: upkeep sweep plus this epoch's
	// reading snapshot. The control-law stages (classify/select/actuate)
	// are recorded by the external driver's own recorder.
	collect := time.Since(t0)
	span.Stage(obs.StageSense, collect, fmt.Sprintf("readings=%d", len(cyc.readings)))
	cus := collect.Microseconds()
	s.lastCollectMicros.SetInt(cus)
	s.collectMicros.Add(float64(cus))
	s.lastPowerW.Set(float64(p))
	if s.learner == nil {
		s.lifetimePeakW.Max(float64(p))
	}
	return cyc
}

// Readings returns the cycle's sensed candidate readings in node-ID
// order: exactly the samples the agents pushed this sense epoch.
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
	c.span.End()
	busy := time.Since(c.t0)
	us := busy.Microseconds()
	s.lastCycleMicros.SetInt(us)
	s.maxCycleMicros.Max(float64(us))
	s.busyMicros.Add(float64(busy) / float64(time.Microsecond))
	return nil
}

// UnackedCommands counts commands in flight: issued (or retried) but not
// yet acknowledged by their agent.
func (s *Server) UnackedCommands() int {
	n := 0
	for _, sh := range s.nodes.shards {
		sh.mu.Lock()
		for _, cs := range sh.cmds {
			if !cs.acked {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
