// Package harness boots an in-process agent/manager cluster — a real
// managerd.Server plus N real agentd Agents — wired together over
// internal/faultnet's deterministic fault-injecting in-memory transport
// instead of loopback TCP.
//
// It exists so chaos and soak tests of the daemon plane (Figure 1's
// distributed control loop) can inject connection kills, message drops,
// asymmetric partitions and slow readers with replayable randomness, and
// then assert the architecture's invariants:
//
//   - safety: estimated fleet power settles at/below P_H under sustained
//     pressure despite faults (AwaitSettledBelow);
//   - consistency: an agent's applied level survives reconnects — a redial
//     never silently resets a throttle command (agentd keeps node state);
//   - liveness: steady-green restore resumes once a partition heals;
//   - accounting: DroppedStale/CommandErrors track the injected faults.
//
// Every cluster also carries a goroutine-leak check: Start snapshots the
// goroutine count and the test fails if Stop does not return to it.
package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/agentd"
	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/wire"
)

// Options parametrises a harness cluster. Zero fields take the defaults
// noted on each; the zero Options value is a small, fast, fault-free
// cluster suitable for converting plain TCP daemon tests.
type Options struct {
	// Agents is the number of agent daemons (default 4).
	Agents int
	// Seed drives the fault network and, offset per agent, the synthetic
	// load patterns (default 1).
	Seed int64

	// ControlEvery is the manager's control period τ (default 50ms).
	ControlEvery time.Duration
	// SampleEvery is the agents' sampling/push interval (default 50ms).
	SampleEvery time.Duration
	// TickEvery is the simulated nodes' load granularity (default 10ms).
	TickEvery time.Duration
	// Tg is the steady-green restore patience in cycles (default 3).
	Tg int
	// Thresholds are the operating thresholds (default a generous
	// megawatt band: the cluster stays green and never throttles).
	Thresholds power.Thresholds
	// Policy selects yellow-state targets (default policy.MPCC{}).
	Policy policy.Policy
	// StaleAfter and CommandTimeout pass through to managerd.Config.
	StaleAfter     time.Duration
	CommandTimeout time.Duration

	// AgentProfile is the fault profile of every agent's outbound path
	// (sample stream) and read throttle; the manager's outbound path
	// (command stream) is fault-free. Override one agent with
	// Cluster.Net.SetClientProfile.
	AgentProfile faultnet.Profile

	// FailsafeAfter/FailsafeLevel arm every agent's dead-man switch (see
	// agentd.Config); zero FailsafeAfter leaves it off.
	FailsafeAfter int
	FailsafeLevel int

	// JournalPath persists the manager's crash-recovery journal there (see
	// daemon.HA); empty journals to memory.
	JournalPath string

	// LeasePath arms leased leadership: the manager claims and renews the
	// lease file every LeaseEvery (default replica.DefaultLeaseEvery) and
	// warm standbys started with Cluster.StartStandby watch it.
	LeasePath  string
	LeaseEvery time.Duration

	// LostAfter passes through to the manager's health state machine; its
	// flap, quarantine and heartbeat settings keep managerd's defaults.
	LostAfter time.Duration

	// Shards and FanoutWorkers pass through to the manager's sharded node
	// store and per-cycle worker pool (see managerd.Config); zero keeps
	// the daemon defaults. Scale tests raise both.
	Shards        int
	FanoutWorkers int

	// Learn enables manager-side threshold learning.
	Learn *managerd.LearnConfig

	// MetricsAddr, when non-empty, serves the manager's observability
	// endpoints (GET /metrics, GET /debug/cycles) on this address.
	MetricsAddr string

	// Model is the power model the manager estimates fleet power with
	// (default power.TianheNode()).
	Model power.Model

	// External runs the manager in external-control mode: the transport
	// stack comes up but no internal control loop — the caller drives
	// cycles through managerd.Server.StartExternalCycle. Used by the
	// daemon cluster backend, where core's manager owns the control law.
	External bool

	// AgentSetup, when non-nil, mutates each agent's config just before
	// agentd.New — the daemon backend uses it to make agents passive
	// relays for the simulated plant's nodes.
	AgentSetup func(i int, cfg *agentd.Config)

	// --- Capping federation (tree.go) ---
	// These pass through to managerd's governed mode. Because
	// serverConfig carries them, a manager restarted with StartManager
	// and a promoted standby both redial the coordinator automatically —
	// cabinet-manager failover is invisible at the coordinator tier.
	Cabinet         int
	CoordinatorDial func() (net.Conn, error)
	ReportEvery     time.Duration
	BudgetGrace     int
	FailsafeBudget  power.Thresholds
	RecordCycle     func(scenario.CycleRecord)
}

// The agents' reconnect backoff runs from agentMinBackoff to
// agentMaxBackoff, so kills heal within a few control cycles.
const (
	agentMinBackoff = 10 * time.Millisecond
	agentMaxBackoff = 80 * time.Millisecond
)

// serverConfig assembles the managerd.Config this cluster's options
// describe, over the given listener. StartManager reuses it so a restarted
// manager comes up with the same parameters (modulo any Opt mutation the
// test made in between, e.g. lengthening the training window to prove a
// journal restore skipped it).
func (o Options) serverConfig(ln net.Listener) managerd.Config {
	cfg := managerd.Config{
		Listener:        ln,
		Model:           o.Model,
		Policy:          o.Policy,
		Tg:              o.Tg,
		ControlEvery:    o.ControlEvery,
		Thresholds:      o.Thresholds,
		StaleAfter:      o.StaleAfter,
		CommandTimeout:  o.CommandTimeout,
		LostAfter:       o.LostAfter,
		HA:              daemon.HA{JournalPath: o.JournalPath},
		Shards:          o.Shards,
		FanoutWorkers:   o.FanoutWorkers,
		Learn:           o.Learn,
		MetricsAddr:     o.MetricsAddr,
		ExternalControl: o.External,
		Cabinet:         o.Cabinet,
		CoordinatorDial: o.CoordinatorDial,
		ReportEvery:     o.ReportEvery,
		BudgetGrace:     o.BudgetGrace,
		FailsafeBudget:  o.FailsafeBudget,
		RecordCycle:     o.RecordCycle,
	}
	if o.LeasePath != "" {
		cfg.Lease = &replica.Lease{Path: o.LeasePath, Every: o.LeaseEvery}
		cfg.LeaseHolder = "primary"
	}
	return cfg
}

func (o *Options) fill() {
	if o.Agents <= 0 {
		o.Agents = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ControlEvery <= 0 {
		o.ControlEvery = 50 * time.Millisecond
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 50 * time.Millisecond
	}
	if o.TickEvery <= 0 {
		o.TickEvery = 10 * time.Millisecond
	}
	if o.Tg <= 0 {
		o.Tg = 3
	}
	if o.Thresholds == (power.Thresholds{}) {
		o.Thresholds = power.Thresholds{PL: 1e6, PH: 2e6}
	}
	if o.Policy == nil {
		o.Policy = policy.MPCC{}
	}
	if len(o.Model.CPU.Freqs) == 0 { // zero Model: no DVFS table
		o.Model = power.TianheNode()
	}
}

// Cluster is a running in-process cluster.
type Cluster struct {
	Opt    Options
	Net    *faultnet.Network
	Server *managerd.Server
	Agents []*agentd.Agent

	standbys []*StandbyHandle

	t        testing.TB
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	stopOnce sync.Once
	leak     *LeakCheck
}

// New boots a manager and Opt.Agents agents over a fresh fault network.
// Agent i dials with faultnet key i; fault profiles follow Options. The
// caller owns the cluster and must Stop it; test helpers that need a
// testing.TB (AwaitAgents etc.) panic on a New-built cluster — use Start
// in tests. On error everything already started is torn down.
func New(opt Options) (*Cluster, error) {
	opt.fill()

	n := faultnet.New(opt.Seed)
	n.SetDefaultProfiles(opt.AgentProfile, faultnet.Profile{})

	srv, err := daemon.Boot(managerd.New(opt.serverConfig(n.Listener())))
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("harness: managerd: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{Opt: opt, Net: n, Server: srv, cancel: cancel}
	for i := 0; i < opt.Agents; i++ {
		key := uint64(i)
		acfg := agentd.Config{
			NodeID:        node.ID(i),
			SampleEvery:   opt.SampleEvery,
			TickEvery:     opt.TickEvery,
			Model:         opt.Model,
			Seed:          opt.Seed + int64(i) + 1,
			FailsafeAfter: opt.FailsafeAfter,
			FailsafeLevel: opt.FailsafeLevel,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return n.Dial(ctx, key)
			},
		}
		if opt.AgentSetup != nil {
			opt.AgentSetup(i, &acfg)
		}
		a, err := agentd.New(acfg)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("harness: agentd.New(%d): %w", i, err)
		}
		c.Agents = append(c.Agents, a)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			a.RunWithReconnect(ctx, agentMinBackoff, agentMaxBackoff)
		}()
	}
	return c, nil
}

// Start boots a cluster via New and registers cleanup (stop +
// goroutine-leak check) on t.
func Start(t testing.TB, opt Options) *Cluster {
	t.Helper()
	leak := StartLeakCheck()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	c.t = t
	c.leak = leak
	t.Cleanup(func() {
		c.Stop()
		c.leak.Check(t, 5*time.Second)
	})
	return c
}

// tb returns the cluster's testing handle, panicking with a clear message
// when the cluster was built with New rather than Start.
func (c *Cluster) tb() testing.TB {
	if c.t == nil {
		panic("harness: test helper called on a New-built cluster (use Start)")
	}
	return c.t
}

// Stop cancels the agents, waits for them, shuts any standbys down (a
// standby stopped before the manager cannot misread the shutdown as a
// leader death), and then stops the manager and the fault network.
// Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.cancel()
		c.wg.Wait()
		for _, h := range c.standbys {
			h.Stop()
		}
		c.Server.Stop()
		c.Net.Close()
	})
}

// StopManager kills only the manager daemon — the control-plane half of a
// manager-crash chaos scenario. The agents keep running against the dead
// control plane: their redials park in the fault network's accept queue
// and, if armed, their dead-man switches trip. Pair with StartManager.
func (c *Cluster) StopManager() { c.Server.Stop() }

// StartManager boots a fresh manager instance on a new listener over the
// same fault network, completing a crash-restart. Parked agent redials are
// accepted immediately. Options mutated between StopManager and
// StartManager (e.g. the learner's training window) take effect here.
func (c *Cluster) StartManager() {
	t := c.tb()
	t.Helper()
	srv, err := daemon.Boot(managerd.New(c.Opt.serverConfig(c.Net.Listener())))
	if err != nil {
		t.Fatalf("harness: managerd (restart): %v", err)
	}
	c.Server = srv
}

// Status returns the manager's counters.
func (c *Cluster) Status() wire.StatusReply { return c.Server.Status() }

// Levels returns every agent's current applied power level.
func (c *Cluster) Levels() []int {
	levels := make([]int, len(c.Agents))
	for i, a := range c.Agents {
		levels[i] = a.Level()
	}
	return levels
}

// MinLevel returns the lowest applied level across the fleet.
func (c *Cluster) MinLevel() int {
	min := int(^uint(0) >> 1)
	for _, a := range c.Agents {
		if l := a.Level(); l < min {
			min = l
		}
	}
	return min
}

// AwaitAgents waits until the manager sees exactly n connected agents.
func (c *Cluster) AwaitAgents(n int, timeout time.Duration) {
	t := c.tb()
	t.Helper()
	WaitUntil(t, timeout, func() bool { return c.Status().Agents == n },
		"manager never saw %d agents (have %d)", n, c.Status().Agents)
}

// AwaitSettledBelow is the safety invariant: the manager's estimated fleet
// power must reach and hold at/below limit for consecutive successive
// polls (one control period apart) before the timeout.
func (c *Cluster) AwaitSettledBelow(limit float64, consecutive int, timeout time.Duration) {
	t := c.tb()
	t.Helper()
	deadline := time.Now().Add(timeout)
	streak := 0
	for time.Now().Before(deadline) {
		st := c.Status()
		if st.LastPowerW > 0 && st.LastPowerW <= limit {
			streak++
			if streak >= consecutive {
				return
			}
		} else {
			streak = 0
		}
		time.Sleep(c.Opt.ControlEvery)
	}
	t.Fatalf("harness: power never settled ≤ %.0f W for %d consecutive cycles (last %.0f W, levels %v)",
		limit, consecutive, c.Status().LastPowerW, c.Levels())
}

// ForceReconnect kills agent key's current connection and waits for the
// agent to redial and re-register with the manager. It returns false if
// there was no live link to kill.
func (c *Cluster) ForceReconnect(key uint64, timeout time.Duration) bool {
	t := c.tb()
	t.Helper()
	old, _ := c.Net.Link(key)
	if old == nil || !c.Net.Kill(key) {
		return false
	}
	WaitUntil(t, timeout, func() bool {
		cur, _ := c.Net.Link(key)
		return cur != nil && cur != old && c.Status().Agents == c.Opt.Agents
	}, "agent %d never reconnected after kill", key)
	return true
}
