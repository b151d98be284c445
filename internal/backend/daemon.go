package backend

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/agentd"
	"repro/internal/harness"
	"repro/internal/manager"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Daemon is the distributed-transport backend: the same simulated plant
// as Sim, but sensed and actuated through the real daemon stack — one
// passive agentd per node pushing samples over internal/faultnet to a
// managerd.Server in external-control mode. The discrete-event engine
// still owns time; at every control instant the backend bridges virtual
// time to the wall-clock daemons:
//
//  1. collect each candidate's reading from the plant (virtual time),
//  2. stamp a time cut and push the readings through the agents' wire
//     connections; wait until the manager has accepted them all (the rig
//     is fault-free and NewDaemon registers every agent before the first
//     cycle, so no hello lands after a cut and counts as a reading),
//  3. start an external cycle at that cut — the readings that arrived
//     after it are what Sense returns to the control law, and its
//     actuator carries SetNodeLevel commands over the wire,
//  4. after the control callback returns, wait for the command fan-out
//     and every ack, so the commanded levels are in force on the plant
//     before the next tick event fires — the sim backend's synchronous
//     actuation semantics, recovered over an asynchronous transport.
//
// Readings survive the wire round-trip losslessly when ControlPeriod is
// a whole number of milliseconds (the sample envelope carries intervals
// in ms; float64 and uint64 fields round-trip exactly through JSON), so
// a run on this backend is metrically equivalent to the sim backend —
// E11 in EXPERIMENTS.md quantifies the residual differences.
type Daemon struct {
	*plant
	coll       *manager.Collector
	hc         *harness.Cluster
	cycle      *managerd.ExternalCycle
	rec        *obs.CycleRecorder
	err        error
	ackTimeout time.Duration
	started    bool
}

// NewDaemon constructs the plant, boots the daemon cluster (manager in
// external-control mode plus one passive agent per node), and waits for
// every agent to register.
func NewDaemon(cfg Config) (*Daemon, error) {
	p, err := newPlant(cfg)
	if err != nil {
		return nil, err
	}
	hc, err := harness.New(harness.Options{
		Agents:   cfg.Nodes,
		Seed:     int64(cfg.Seed),
		Model:    cfg.Model,
		External: true,
		// Health staleness is wall-clock; a virtual-time run pushes
		// samples every few wall-milliseconds, so these only need to be
		// far above any plausible scheduling hiccup.
		StaleAfter: time.Hour,
		LostAfter:  2 * time.Hour,
		AgentSetup: func(i int, acfg *agentd.Config) {
			n := p.cluster.Node(node.ID(i))
			acfg.Passive = true
			acfg.MaxLevel = n.Levels() - 1
			acfg.InitialLevel = n.Level()
			acfg.Apply = func(level int) (int, error) {
				p.mu.Lock()
				defer p.mu.Unlock()
				err := n.SetLevel(level)
				return n.Level(), err
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		plant:      p,
		coll:       manager.NewCollector(p.cluster, p.sched),
		hc:         hc,
		ackTimeout: 10 * time.Second,
	}
	deadline := time.Now().Add(10 * time.Second)
	for hc.Server.Status().Agents < cfg.Nodes {
		if time.Now().After(deadline) {
			hc.Stop()
			return nil, fmt.Errorf("backend: only %d/%d agents registered after 10s",
				hc.Server.Status().Agents, cfg.Nodes)
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// Observe attaches the staged-cycle recorder. Call before Start.
func (d *Daemon) Observe(rec *obs.CycleRecorder) { d.rec = rec }

// Start registers the plant tick and the bridged control event; as in
// the sim backend, the tick fires first at shared instants.
func (d *Daemon) Start(control func(now time.Duration)) error {
	if d.started {
		return fmt.Errorf("backend: Start called twice")
	}
	d.started = true
	d.engine.Every(d.cfg.TickPeriod, func(e *sim.Engine) { d.tick(e.Now()) })
	d.engine.Every(d.cfg.ControlPeriod, func(e *sim.Engine) { d.controlEvent(e.Now(), control) })
	return nil
}

// controlEvent is the virtual-time bridge around one control cycle.
func (d *Daemon) controlEvent(now time.Duration, control func(now time.Duration)) {
	if d.err != nil {
		return
	}
	d.mu.Lock()
	readings := d.coll.Collect(now)
	d.mu.Unlock()

	base := d.hc.Server.SamplesReceived()
	since := time.Now()
	for _, r := range readings {
		if err := d.hc.Agents[int(r.ID)].PushReading(r); err != nil {
			d.err = fmt.Errorf("backend: push reading for node %d: %w", r.ID, err)
			return
		}
	}
	want := base + int64(len(readings))
	deadline := time.Now().Add(d.ackTimeout)
	for d.hc.Server.SamplesReceived() < want {
		if time.Now().After(deadline) {
			d.err = fmt.Errorf("backend: %d/%d samples received after %v",
				d.hc.Server.SamplesReceived()-base, len(readings), d.ackTimeout)
			return
		}
		// Yield, do not sleep: the link buffers, so the pushes above
		// return before the manager's readers have run, and those
		// readers are runnable now. A sub-millisecond sleep in an
		// otherwise idle process lasts a full timer tick (≈ 1 ms here),
		// once per control period.
		runtime.Gosched()
	}

	cyc := d.hc.Server.StartExternalCycle(since)
	d.cycle = cyc
	span := d.rec.Begin()
	control(now)
	d.cycle = nil
	t0 := time.Now()
	err := cyc.Finish(d.ackTimeout)
	// Settle is the wire transport's real cost: command fan-out plus every
	// ack, which the sim backend gets for free (its settle is zero).
	span.Stage(obs.StageSettle, time.Since(t0), "")
	span.End()
	if err != nil {
		d.err = err
	}
}

// RunUntil advances virtual time to t, surfacing the first transport
// error the bridge hit.
func (d *Daemon) RunUntil(t time.Duration) error {
	d.engine.RunUntil(t)
	return d.err
}

// Sense returns the readings the manager daemon accepted since this
// cycle's cut, in node-ID order. Only valid inside the control callback.
func (d *Daemon) Sense(now time.Duration) []manager.AgentReading {
	if d.cycle == nil {
		return nil
	}
	return d.cycle.Readings()
}

// SetNodeLevel sends a level command over the wire through the current
// cycle's tracked actuator.
func (d *Daemon) SetNodeLevel(id node.ID, level int) error {
	if d.cycle == nil {
		return fmt.Errorf("backend: SetNodeLevel outside a control cycle")
	}
	return d.cycle.SetNodeLevel(id, level)
}

// Close shuts the agents, manager and fault network down. Idempotent.
func (d *Daemon) Close() error {
	d.hc.Stop()
	return nil
}

// Status exposes the manager daemon's transport counters (samples
// received, acks, retries, fan-out latencies) for reporting.
func (d *Daemon) Status() wire.StatusReply { return d.hc.Server.Status() }
