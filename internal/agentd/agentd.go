// Package agentd implements the per-node profiling agent daemon of the
// architecture (Figure 1): it samples the node's kernel counters every
// sampling interval, pushes the raw interval readings to the global power
// manager over TCP, and applies the power level commands the manager sends
// back.
//
// In this repository the "node" behind the agent is the simulated Tianhe
// node driven by a synthetic load pattern in real time — the agent code
// itself (sampling, deltas, wire protocol, command handling) is exactly
// what would run against a real /proc.
package agentd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config parametrises an agent.
type Config struct {
	// NodeID is this node's identity within the cluster.
	NodeID node.ID
	// ManagerAddrs is the manager's HA group: the global manager daemon,
	// then any warm standbys. Each failed session moves on to the next
	// address (wire.Group.Rotate), so an agent orphaned by a dead primary
	// finds the promoted standby within one redial sweep instead of
	// hammering the dead address forever.
	ManagerAddrs wire.Group
	// Dial, when non-nil, replaces the rotation over ManagerAddrs — the
	// in-process harness routes agents through fault-injecting pipes
	// this way. Each Run invocation calls it once.
	Dial func(ctx context.Context) (net.Conn, error)
	// SampleEvery is the sampling/push interval τ.
	SampleEvery time.Duration
	// TickEvery is the granularity at which the simulated node's load
	// pattern advances.
	TickEvery time.Duration
	// Model is the node's device model.
	Model power.Model
	// Seed drives the synthetic load pattern.
	Seed int64

	// FailsafeAfter arms the dead-man switch: after this many sample
	// periods without any manager traffic (disconnected, partitioned, or
	// a silent manager), the agent self-degrades to FailsafeLevel so the
	// cluster cap holds with zero managers alive. Zero disables the
	// switch. The watchdog runs on wall time for as long as Run or
	// RunWithReconnect does, so a connected-but-silent manager trips it too.
	FailsafeAfter int
	// FailsafeLevel is the floor level the dead-man switch degrades to
	// (default 0, the lowest power state). The switch only ever lowers
	// the level — a node already below the floor stays where it is.
	FailsafeLevel int

	// Passive turns the agent into a stateless relay for an externally
	// owned node: no simulated node, no tick loop, no self-sampling.
	// The external driver pushes samples through PushReading on its own
	// clock, and commands are applied through the Apply callback. The
	// wire behaviour (hello, acks, batch unwrapping, dead-man switch) is
	// identical to an active agent — the manager cannot tell them apart.
	Passive bool
	// MaxLevel is the passive node's top power level (levels-1),
	// reported in the hello. Passive mode only.
	MaxLevel int
	// InitialLevel is the passive node's level when the agent starts.
	// Passive mode only.
	InitialLevel int
	// Apply executes a level command against the external node and
	// returns the level actually in force afterwards (valid even when
	// err is non-nil, so acks report the real level on a rejected
	// command). Required in passive mode.
	Apply func(level int) (applied int, err error)

	// Obs is the instrument registry the agent publishes its counters
	// into (samples pushed, commands applied, acks sent, failsafe trips,
	// reconnects). Nil gets a private registry; the powagentd command
	// passes one shared with its -metrics-addr endpoint.
	Obs *obs.Registry
}

// Agent is a running profiling agent.
type Agent struct {
	cfg  Config
	node *node.Node
	rng  *rand.Rand

	mu       sync.Mutex
	prevSnap procfs.Snapshot
	havePrev bool
	job      workload.JobID

	// dead-man switch state
	lastContact time.Time // last traffic received from a manager
	tripped     bool      // currently at the failsafe floor by our own hand

	// Leadership fencing state (guarded by mu): the highest manager epoch
	// ever seen in a welcome hello. Zero means no HA-enabled manager has
	// been met and fencing is off.
	maxEpoch uint64

	// Instruments (same names the /metrics endpoint exposes).
	reg           *obs.Registry
	samplesPushed *obs.Counter // samples sent to the manager
	cmdsApplied   *obs.Counter // level commands applied
	applyErrs     *obs.Counter // commands rejected by the node
	acksSent      *obs.Counter // acks written back
	failsafeTrips *obs.Counter // dead-man switch firings
	reconnects    *obs.Counter // redials after a dropped connection
	staleRejects  *obs.Counter // sessions refused for carrying an old epoch
	decodeErrs    *obs.Counter // corrupt inbound frames tolerated and skipped

	// synthetic load state
	loadUntil time.Duration
	load      node.Load
	clock     time.Duration

	// passive-mode state: the cached level of the external node (kept in
	// sync by Apply returns and pushed readings; guarded by mu) and the live
	// session PushReading sends on (nil when disconnected).
	curLevel int
	live     atomic.Pointer[session]
}

// New constructs an agent: with a freshly simulated node at full power,
// or (Passive) as a relay for an externally owned node.
func New(cfg Config) (*Agent, error) {
	if cfg.SampleEvery <= 0 || cfg.TickEvery <= 0 {
		return nil, fmt.Errorf("agentd: need positive intervals")
	}
	a := &Agent{cfg: cfg, lastContact: time.Now()}
	if cfg.Dial == nil {
		a.cfg.Dial = cfg.ManagerAddrs.Rotate()
	}
	if cfg.Passive {
		if cfg.Apply == nil {
			return nil, fmt.Errorf("agentd: passive mode needs an Apply callback")
		}
		if cfg.MaxLevel < 0 || cfg.InitialLevel < 0 || cfg.InitialLevel > cfg.MaxLevel {
			return nil, fmt.Errorf("agentd: passive levels invalid: initial %d, max %d", cfg.InitialLevel, cfg.MaxLevel)
		}
		if cfg.FailsafeAfter > 0 && (cfg.FailsafeLevel < 0 || cfg.FailsafeLevel > cfg.MaxLevel) {
			return nil, fmt.Errorf("agentd: failsafe level %d outside [0,%d]", cfg.FailsafeLevel, cfg.MaxLevel)
		}
		a.curLevel = cfg.InitialLevel
	} else {
		n, err := node.New(cfg.NodeID, node.Config{Model: cfg.Model, Controllable: true})
		if err != nil {
			return nil, err
		}
		if cfg.FailsafeAfter > 0 && (cfg.FailsafeLevel < 0 || cfg.FailsafeLevel >= n.Levels()) {
			return nil, fmt.Errorf("agentd: failsafe level %d outside [0,%d)", cfg.FailsafeLevel, n.Levels())
		}
		a.node = n
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	a.reg = cfg.Obs
	if a.reg == nil {
		a.reg = obs.NewRegistry()
	}
	a.samplesPushed = a.reg.Counter("samples_pushed")
	a.cmdsApplied = a.reg.Counter("commands_applied")
	a.applyErrs = a.reg.Counter("apply_errors")
	a.acksSent = a.reg.Counter("acks_sent")
	a.failsafeTrips = a.reg.Counter("failsafe_trips")
	a.reconnects = a.reg.Counter("reconnects")
	a.staleRejects = a.reg.Counter("stale_epoch_rejects")
	a.decodeErrs = a.reg.Counter("decode_errors")
	return a, nil
}

// Registry exposes the agent's instruments; powagentd serves them on its
// -metrics-addr endpoint.
func (a *Agent) Registry() *obs.Registry { return a.reg }

// CommandsApplied reports how many level commands the agent has applied.
func (a *Agent) CommandsApplied() int { return int(a.cmdsApplied.Value()) }

// Level reports the node's current power level.
func (a *Agent) Level() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Passive {
		return a.curLevel
	}
	return a.node.Level()
}

// FailsafeTrips reports how many times the dead-man switch has fired.
func (a *Agent) FailsafeTrips() int { return int(a.failsafeTrips.Value()) }

// MaxEpoch reports the highest leadership epoch any manager has announced
// to this agent (zero when fencing has never been engaged).
func (a *Agent) MaxEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxEpoch
}

// StaleEpochRejects reports how many manager sessions the agent refused
// because they announced an epoch older than one it had already seen.
func (a *Agent) StaleEpochRejects() int { return int(a.staleRejects.Value()) }

// Tripped reports whether the agent currently sits at the failsafe floor
// by its own decision (no manager contact). It clears on the next manager
// traffic; the level itself stays until the manager reconciles it.
func (a *Agent) Tripped() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tripped
}

// touchContact records manager traffic: it re-arms the dead-man switch
// and clears the tripped flag. The node's level is left alone — a
// returning manager sees the floor level in the agent's samples and
// reconciles by explicit command rather than the agent guessing. With the
// switch off there is nothing to re-arm, and no lock or clock is taken.
func (a *Agent) touchContact() {
	if a.cfg.FailsafeAfter <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastContact = time.Now()
	a.tripped = false
}

// failsafeCheck trips the dead-man switch when the silence grace
// (FailsafeAfter sample periods) has elapsed: the node self-degrades to
// the failsafe floor so the facility cap holds with no manager alive.
func (a *Agent) failsafeCheck() {
	if a.cfg.FailsafeAfter <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tripped {
		return
	}
	grace := time.Duration(a.cfg.FailsafeAfter) * a.cfg.SampleEvery
	if time.Since(a.lastContact) < grace {
		return
	}
	a.tripped = true
	a.failsafeTrips.Inc()
	if a.cfg.Passive {
		if a.curLevel > a.cfg.FailsafeLevel {
			if lvl, err := a.cfg.Apply(a.cfg.FailsafeLevel); err == nil {
				a.curLevel = lvl
			}
		}
		return
	}
	if a.node.Level() > a.cfg.FailsafeLevel {
		_ = a.node.SetLevel(a.cfg.FailsafeLevel)
	}
}

// step advances the synthetic workload pattern by one tick: the node
// alternates between job episodes (random benchmark-like loads attributed
// to a synthetic job ID) and short idle gaps.
func (a *Agent) step() {
	a.clock += a.cfg.TickEvery
	if a.clock >= a.loadUntil {
		if a.rng.Float64() < 0.15 {
			// Idle gap.
			a.load = node.Load{CPUUtil: 0.02}
			a.job = 0
			a.loadUntil = a.clock + time.Duration(1+a.rng.Intn(5))*a.cfg.SampleEvery
		} else {
			a.load = node.Load{
				CPUUtil: 0.5 + a.rng.Float64()*0.5,
				MemFrac: 0.2 + a.rng.Float64()*0.5,
				NICFrac: a.rng.Float64() * 0.5,
			}
			a.job = workload.JobID(1 + a.rng.Intn(16))
			a.loadUntil = a.clock + time.Duration(5+a.rng.Intn(30))*a.cfg.SampleEvery
		}
	}
	a.node.SetLoad(a.load)
	a.node.Tick(a.cfg.TickEvery)
}

// sample produces the current interval reading.
func (a *Agent) sample() manager.AgentReading {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.node.Snapshot(a.clock)
	r := manager.AgentReading{
		ID:       a.node.ID(),
		Level:    a.node.Level(),
		MaxLevel: a.node.Levels() - 1,
		Job:      a.job,
	}
	if a.havePrev {
		if d, err := procfs.Diff(a.prevSnap, cur); err == nil {
			r.Delta = d
		}
	}
	a.prevSnap, a.havePrev = cur, true
	return r
}

// apply executes a level command and returns the level in force after it,
// read under the same lock.
func (a *Agent) apply(level int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.cfg.Passive {
		a.curLevel, err = a.cfg.Apply(level)
		level = a.curLevel
	} else {
		err = a.node.SetLevel(level)
		level = a.node.Level()
	}
	if err != nil {
		a.applyErrs.Inc()
	} else {
		a.cmdsApplied.Inc()
	}
	return level
}

// PushReading sends one externally supplied sample to the manager over
// the live connection. Passive mode only — the external driver owns the
// sampling clock. The reading's level refreshes the cached level so
// hello-after-reconnect and ack replies stay truthful.
func (a *Agent) PushReading(r manager.AgentReading) error {
	live := a.live.Load()
	if live == nil {
		return fmt.Errorf("agentd: node %d not connected", a.cfg.NodeID)
	}
	a.mu.Lock()
	a.curLevel = r.Level
	a.mu.Unlock()
	sample := wire.SampleEnvelope(r)
	if err := live.send(&sample); err != nil {
		return err
	}
	a.samplesPushed.Inc()
	return nil
}

// Connected reports whether a passive agent holds a live session, that is
// whether PushReading has somewhere to send.
func (a *Agent) Connected() bool { return a.live.Load() != nil }

// RunWithReconnect runs the agent, redialling the manager with capped
// exponential backoff whenever the connection drops. It returns only when
// ctx is cancelled. The node keeps its power level across reconnects —
// an agent restart must not silently undo a manager's throttle command.
func (a *Agent) RunWithReconnect(ctx context.Context, initialBackoff, maxBackoff time.Duration) {
	if initialBackoff <= 0 {
		initialBackoff = 100 * time.Millisecond
	}
	if maxBackoff < initialBackoff {
		maxBackoff = 10 * initialBackoff
	}
	defer a.deadMan()()
	wire.Link{
		Dial:    a.cfg.Dial,
		Backoff: wire.Backoff{Min: initialBackoff, Max: maxBackoff},
		// A redial follows a failed session (refused, dropped, or fenced as
		// stale), so each one dials the next address of the group.
		Redial: a.reconnects.Inc,
	}.Run(ctx, func(conn *wire.Conn) { _ = a.session(ctx, conn) })
}

// Run connects to the manager and serves until ctx is cancelled or the
// connection drops. It returns the first terminal error (nil on clean
// shutdown via ctx). On return the connection is closed and every goroutine
// it started has exited — reconnect churn never accumulates goroutines.
func (a *Agent) Run(ctx context.Context) error {
	defer a.deadMan()()
	conn, err := wire.Open(ctx, a.cfg.Dial)
	if err != nil {
		return fmt.Errorf("agentd: dial manager: %w", err)
	}
	return a.session(ctx, conn)
}

// deadMan starts the dead-man watchdog, the agent's one ticker for it: once
// per sample period for as long as the agent runs, so the switch fires in
// dial backoff with no connection and under a connected but silent manager
// (wedged control loop, asymmetric partition on the command path) alike.
func (a *Agent) deadMan() (stop func()) {
	if a.cfg.FailsafeAfter <= 0 {
		return func() {}
	}
	a.touchContact() // grace counts from run start, not agent creation
	return every(a.cfg.SampleEvery, a.failsafeCheck)
}

// every calls fn once per period on a goroutine of its own, the only kind an
// agent starts; the returned func stops it and waits for it.
func every(period time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// session is one connection's life. The goroutine that opened it sends the
// hello and is then its reader; a passive agent starts nothing else, an
// active one its sampling writer (tick). Acks from the reader and samples
// from the writer or PushReading's caller are serialised by sendMu.
type session struct {
	a      *Agent
	conn   *wire.Conn
	sendMu sync.Mutex

	// Writer-owned, the reader's once the writer is joined.
	nextSample time.Duration
	werr       error // the send that failed, which is why the read then did
}

var errStaleManager = errors.New("agentd: manager announced a superseded epoch")

// session serves one open connection (wire.Open: a cancelled ctx closes
// it, which is what unblocks a read, or a send parked on a dead pipe) until
// ctx is cancelled or it drops, and closes it.
func (a *Agent) session(ctx context.Context, conn *wire.Conn) error {
	s := &session{a: a, conn: conn, nextSample: a.cfg.SampleEvery}
	defer conn.Close()
	if err := s.hello(); err != nil {
		return err
	}
	join := func() {}
	if a.cfg.Passive {
		// No node to tick, no clock of our own: PushReading's caller sends.
		a.live.Store(s)
		defer a.live.Store(nil)
	} else {
		join = every(a.cfg.TickEvery, s.tick)
	}
	// The reader: until the connection ends (closing it is what unparks us)
	// or is fenced. Any traffic at all re-arms the dead-man switch.
	var env wire.Envelope
	var err error
	for skipped := a.decodeErrs.Inc; err == nil; {
		if err = conn.Next(&env, skipped); err == nil {
			a.touchContact()
			err = s.handle(&env, 0)
		}
	}
	conn.Close() // before the join: the writer may be parked in a send
	join()
	if ctx.Err() != nil {
		return nil
	}
	return cmp.Or(s.werr, err)
}

func (s *session) send(e *wire.Envelope) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.conn.Send(*e)
}

// hello opens the session. It carries the node's current level: a
// reconnecting throttled agent must not look full-power to the manager until
// its first sample arrives. It also reports the highest leadership epoch this
// agent has seen, so a deposed leader we reconnect to learns about its
// successor and fences itself.
func (s *session) hello() error {
	a := s.a
	maxLevel := a.cfg.MaxLevel
	if !a.cfg.Passive {
		maxLevel = a.node.Levels() - 1
	}
	return s.conn.Offer(wire.Envelope{
		Type: wire.KindHello, Node: int(a.cfg.NodeID),
		MaxLevel: maxLevel,
		Level:    a.Level(),
		Epoch:    a.MaxEpoch(),
	})
}

// handle processes one manager message; batch frames (the manager's
// coalesced command+heartbeat writes) unwrap one level deep — batches do
// not nest, so a Batch inside a Batch is dropped. An error ends the session.
func (s *session) handle(env *wire.Envelope, depth int) error {
	a := s.a
	switch env.Type {
	case wire.KindHello:
		// The codec confirmation riding this frame is already acted on
		// (wire.Conn.Next) — before the epoch check, because a non-HA
		// manager replies with epoch zero just to pick a codec. An epoch
		// below one already seen is a deposed leader still talking: refuse
		// the session, and every frame behind this one, so that its
		// commands can never undo the live leader's.
		a.mu.Lock()
		stale := env.Epoch != 0 && env.Epoch < a.maxEpoch
		a.maxEpoch = max(a.maxEpoch, env.Epoch)
		a.mu.Unlock()
		if stale {
			a.staleRejects.Inc()
			return errStaleManager
		}
	case wire.KindBatch:
		for i := 0; depth == 0 && i < len(env.Batch); i++ {
			if err := s.handle(&env.Batch[i], 1); err != nil {
				return err
			}
		}
	case wire.KindCommand:
		// Ack with the level actually in force: on an invalid command the
		// manager learns the real level instead of assuming the command
		// took.
		ack := wire.Envelope{
			Type: wire.KindAck, Node: int(a.cfg.NodeID),
			Seq: env.Seq, Level: a.apply(env.Level),
		}
		if s.send(&ack) == nil {
			a.acksSent.Inc()
		}
	}
	return nil
}

// tick is the active agent's writer, on the session's second goroutine: it
// advances the node and pushes a sample each period. A failed send ends the
// session, by closing the connection under the reader.
func (s *session) tick() {
	a := s.a
	a.mu.Lock()
	a.step()
	clock := a.clock
	a.mu.Unlock()
	if clock < s.nextSample || s.werr != nil {
		return
	}
	s.nextSample += a.cfg.SampleEvery
	sample := wire.SampleEnvelope(a.sample())
	if s.werr = s.send(&sample); s.werr != nil {
		s.conn.Close()
		return
	}
	a.samplesPushed.Inc()
}
