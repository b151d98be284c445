package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agentd"
	"repro/internal/daemon"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// engineConfig parametrises one open-loop scenario run against a live
// manager daemon.
type engineConfig struct {
	// Addr is the daemon's TCP address.
	Addr string
	// SC is the scenario whose script the fleet replays; Seed fixes the
	// script.
	SC   scenario.Scenario
	Seed int64
	// Workers is the number of sender goroutines the fleet is partitioned
	// across; Pipeline is the burst depth — how many cycles' samples one
	// wakeup writes back-to-back per agent (1 = one wakeup per cycle).
	// Deeper pipelines trade per-sample timeliness for fewer wakeups and
	// bigger write bursts, exactly like a pipelined HTTP generator.
	Workers  int
	Pipeline int
	// SampleEvery is the open-loop tick: sample c is due at start +
	// c·SampleEvery regardless of how the previous send went.
	SampleEvery time.Duration
	// StatusEvery is the status-probe cadence on the separate control
	// connection.
	StatusEvery time.Duration
	// Duration, when positive, caps the run even if the script is longer.
	Duration time.Duration
	Verbose  bool
}

func (c engineConfig) validate() error {
	if c.Addr == "" {
		return fmt.Errorf("powbench: empty manager address")
	}
	if err := c.SC.Validate(); err != nil {
		return err
	}
	if c.Workers <= 0 || c.Pipeline <= 0 {
		return fmt.Errorf("powbench: workers and pipeline must be positive")
	}
	if c.SampleEvery <= 0 {
		return fmt.Errorf("powbench: sample-every must be positive")
	}
	return nil
}

// scenarioEntry is one scenario's persisted benchmark record — the
// BENCH_scenarios.json schema benchguard guards.
type scenarioEntry struct {
	Scenario     string  `json:"scenario"`
	Agents       int     `json:"agents"`
	Cycles       int     `json:"cycles"`
	Seed         int64   `json:"seed"`
	SamplesSent  int64   `json:"samples_sent"`
	CommandsSeen int64   `json:"commands_seen"`
	AcksSent     int64   `json:"acks_sent"`
	Reconnects   int64   `json:"reconnects"`
	SendErrors   int64   `json:"send_errors"`
	SendLagP50US float64 `json:"send_lag_p50_us"`
	SendLagP99US float64 `json:"send_lag_p99_us"`
	StatusP50US  float64 `json:"status_p50_us"`
	StatusP99US  float64 `json:"status_p99_us"`
	MaxPowerW    float64 `json:"max_power_w"`
	MaxCycleUS   int64   `json:"max_cycle_us"`
	RedEntries   int     `json:"red_entries"`
	DegradeOps   int     `json:"degrade_ops"`
	RestoreOps   int     `json:"restore_ops"`
	MinLevel     int     `json:"min_level"`
}

// benchNode is one scripted node: a passive agentd.Agent (the production
// agent: codec negotiation, decode tolerance, epoch fencing) that applies
// commands instantly, and the session it currently runs. Only its worker
// touches it; minLevel is also written by the session's reader, in Apply.
type benchNode struct {
	id  int
	eng *engine

	agent    *agentd.Agent
	hangUp   context.CancelFunc // ends the session; nil while offline
	ended    chan struct{}      // closed when the session has returned
	minLevel atomic.Int64
}

// engine drives one scenario run.
type engine struct {
	cfg      engineConfig
	script   [][]scenario.Load
	maxLevel int
	nodes    []*benchNode

	// reg is shared by every agent, so its samples_pushed, commands_applied
	// and acks_sent counters are fleet totals.
	reg     *obs.Registry
	sendLag *obs.Histogram // µs: send completion vs open-loop schedule
	statRTT *obs.Histogram // µs: status probe round trips

	reconnects atomic.Int64
	sendErrs   atomic.Int64

	// maxPower is the highest last_power_w the status probe saw; written
	// only by the prober goroutine, read after it is joined.
	maxPower float64
}

// boot gives the node a fresh agent at the hardware default level, with no
// memory of any manager: the initial state, and a scripted reboot.
func (n *benchNode) boot() (err error) {
	eng := n.eng
	n.agent, err = agentd.New(agentd.Config{
		NodeID: node.ID(n.id), ManagerAddrs: []string{eng.cfg.Addr},
		SampleEvery: eng.cfg.SampleEvery, TickEvery: eng.cfg.SampleEvery,
		Passive: true, MaxLevel: eng.maxLevel, InitialLevel: eng.maxLevel,
		Apply: func(level int) (int, error) {
			if int64(level) < n.minLevel.Load() {
				n.minLevel.Store(int64(level))
			}
			return level, nil
		},
		Obs: eng.reg,
	})
	return err
}

// dial starts one session of the node's agent; connected says how it went.
func (n *benchNode) dial() {
	ctx, cancel := context.WithCancel(context.Background())
	n.hangUp, n.ended = cancel, make(chan struct{})
	go func(a *agentd.Agent, ended chan struct{}) {
		defer close(ended)
		_ = a.Run(ctx)
	}(n.agent, n.ended)
}

// connected reports whether the node holds a live session, waiting out one
// that is still dialling and retiring one that has ended — refused, or
// dropped by the daemon (failover).
func (n *benchNode) connected() bool {
	for n.hangUp != nil && !n.agent.Connected() {
		select {
		case <-n.ended:
			n.close()
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return n.hangUp != nil
}

// close cancels the node's session, if any, and waits for it to end.
func (n *benchNode) close() {
	if n.hangUp != nil {
		n.hangUp()
		<-n.ended
		n.hangUp = nil
	}
}

// runScenario replays the scenario's deterministic script open-loop
// against the live daemon at cfg.Addr and returns the run's benchmark
// entry.
func runScenario(cfg engineConfig) (scenarioEntry, error) {
	if err := cfg.validate(); err != nil {
		return scenarioEntry{}, err
	}
	eng := &engine{
		cfg:      cfg,
		script:   cfg.SC.Script(cfg.Seed),
		maxLevel: benchModel.Levels() - 1,
		reg:      obs.NewRegistry(),
	}
	eng.sendLag = eng.reg.Histogram("bench_send_lag_us")
	eng.statRTT = eng.reg.Histogram("bench_status_rtt_us")

	cycles := len(eng.script)
	if cfg.Duration > 0 {
		if byTime := int(cfg.Duration / cfg.SampleEvery); byTime < cycles {
			cycles = byTime
		}
		if cycles == 0 {
			cycles = 1
		}
	}

	eng.nodes = make([]*benchNode, cfg.SC.Agents)
	defer func() {
		for _, n := range eng.nodes {
			if n != nil {
				n.close()
			}
		}
	}()
	for i := range eng.nodes {
		n := &benchNode{id: i, eng: eng}
		n.minLevel.Store(int64(eng.maxLevel))
		if err := n.boot(); err != nil {
			return scenarioEntry{}, err
		}
		eng.nodes[i] = n
		// The initial fleet dials at once, herd-style.
		if eng.script[0][i].Online {
			n.dial()
		}
	}
	for i, n := range eng.nodes {
		if eng.script[0][i].Online && !n.connected() {
			return scenarioEntry{}, fmt.Errorf("agent %d: no session with %s", n.id, cfg.Addr)
		}
	}

	// Status prober: a separate control connection measuring what the
	// paper's operator sees — status RTT under load.
	probeCtx, stopProbe := context.WithCancel(context.Background())
	var probeWG sync.WaitGroup
	statusEvery := cfg.StatusEvery
	if statusEvery <= 0 {
		statusEvery = 100 * time.Millisecond
	}
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		tick := time.NewTicker(statusEvery)
		defer tick.Stop()
		for {
			select {
			case <-probeCtx.Done():
				return
			case <-tick.C:
				t0 := time.Now()
				if env, err := daemon.QueryStatus(cfg.Addr, 2*time.Second); err == nil {
					eng.statRTT.ObserveDuration(time.Since(t0))
					eng.maxPower = max(eng.maxPower, env.Stats.LastPowerW)
				}
			}
		}
	}()

	// The open-loop schedule: sample c is due at start + c·SampleEvery.
	// Workers own disjoint agent subsets and never wait for the manager —
	// a slow daemon shows up as send lag, not reduced offered load.
	start := time.Now()
	var workWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			eng.worker(w, cycles, start)
		}(w)
	}
	workWG.Wait()

	// Let in-flight commands and acks drain before the final readout.
	time.Sleep(4 * cfg.SampleEvery)
	stopProbe()
	probeWG.Wait()

	env, err := daemon.QueryStatus(cfg.Addr, 5*time.Second)
	if err != nil {
		return scenarioEntry{}, fmt.Errorf("final status: %w", err)
	}
	st := env.Stats
	maxPower := eng.maxPower
	if st.LastPowerW > maxPower {
		maxPower = st.LastPowerW
	}

	minLevel := eng.maxLevel
	for _, n := range eng.nodes {
		minLevel = min(minLevel, int(n.minLevel.Load()))
	}
	entry := scenarioEntry{
		Scenario:     cfg.SC.Name,
		Agents:       cfg.SC.Agents,
		Cycles:       cycles,
		Seed:         cfg.Seed,
		SamplesSent:  eng.reg.Counter("samples_pushed").Value(),
		CommandsSeen: eng.reg.Counter("commands_applied").Value(),
		AcksSent:     eng.reg.Counter("acks_sent").Value(),
		Reconnects:   eng.reconnects.Load(),
		SendErrors:   eng.sendErrs.Load(),
		SendLagP50US: round1(eng.sendLag.Quantile(0.5)),
		SendLagP99US: round1(eng.sendLag.Quantile(0.99)),
		StatusP50US:  round1(eng.statRTT.Quantile(0.5)),
		StatusP99US:  round1(eng.statRTT.Quantile(0.99)),
		MaxPowerW:    round1(maxPower),
		MaxCycleUS:   st.MaxCycleMicros,
		RedEntries:   st.RedEntries,
		DegradeOps:   st.DegradeOps,
		RestoreOps:   st.RestoreOps,
		MinLevel:     minLevel,
	}
	return entry, nil
}

// worker replays the script for the agents it owns (id ≡ w mod Workers).
// Every Pipeline cycles it wakes at the burst's last-due tick and writes
// the pending cycles' samples back-to-back per agent; lag is measured
// against each sample's own due time.
func (eng *engine) worker(w, cycles int, start time.Time) {
	cfg := eng.cfg
	for c := 0; c < cycles; c += cfg.Pipeline {
		burstEnd := c + cfg.Pipeline - 1
		if burstEnd >= cycles {
			burstEnd = cycles - 1
		}
		due := start.Add(time.Duration(burstEnd) * cfg.SampleEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for _, n := range eng.nodes {
			if n.id%cfg.Workers != w {
				continue
			}
			for pc := c; pc <= burstEnd; pc++ {
				eng.stepAgent(n, pc, start)
			}
		}
	}
}

// stepAgent advances one agent through one scripted cycle: offline/online
// transitions (real disconnects and redials against the live daemon),
// upgrade resets, and the cycle's sample.
func (eng *engine) stepAgent(n *benchNode, c int, start time.Time) {
	ld := eng.script[c][n.id]
	if !ld.Online {
		n.close() // partition/upgrade: the daemon sees a dead conn
		return
	}
	if ld.Reset {
		// Rebooted node: a fresh agent on a fresh session.
		n.close()
		if err := n.boot(); err != nil {
			eng.sendErrs.Add(1)
			return
		}
	}
	if !n.connected() {
		if n.dial(); !n.connected() {
			eng.sendErrs.Add(1)
			return
		}
		eng.reconnects.Add(1)
	}
	err := n.agent.PushReading(manager.AgentReading{
		ID:       node.ID(n.id),
		Level:    n.agent.Level(),
		MaxLevel: eng.maxLevel,
		Delta:    ld.Delta(benchModel),
		Job:      workload.JobID(ld.Job),
	})
	if err != nil {
		eng.sendErrs.Add(1)
		n.close()
		return
	}
	due := start.Add(time.Duration(c) * eng.cfg.SampleEvery)
	lag := time.Since(due)
	if lag < 0 {
		lag = 0
	}
	eng.sendLag.ObserveDuration(lag)
}

func round1(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*10) / 10
}
