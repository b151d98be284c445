// Package managerd implements the global power manager as a network
// daemon: it accepts TCP connections from per-node profiling agents
// (internal/agentd), keeps the freshest sample per node, and runs the
// power capping algorithm (Algorithm 1) every control cycle, pushing level
// commands back down the agent connections.
//
// The daemon accounts its own busy time per cycle; Figure 5's management
// cost curve is this measured collect+estimate+select time as a fraction
// of the control period, at increasing candidate set sizes.
//
// On top of the control loop sits a fail-safe layer for control-plane
// faults: commands carry sequence numbers and are retried until the agent
// acknowledges them; agent-reported levels are reconciled against the
// last acknowledged command; node health is classified each cycle
// (healthy/stale/lost/quarantined, see health.go) with reconnect-flapping
// nodes quarantined out of the candidate set; periodic heartbeats let
// agents' dead-man switches distinguish a live-but-green manager from a
// dead one; and a crash-recovery journal (journal.go) lets a restarted
// manager resume capping without a fresh training window.
//
// The actuation path is concurrent: node state is sharded (store.go) so
// sample readers and the control loop stop contending on one mutex, the
// cycle's one sweep of the shards runs on a bounded worker pool that
// includes the cycle's own goroutine, and the cycle and its writers write
// commands through onto every link that has room, a per-connection sender
// goroutine starting only for a link that is backed up (sender.go;
// TestRedCycleStartsNoSender, TestWriteThroughIsolatesASlowReader) — the
// cycle's fan-out cost is bounded by the slowest single node, not the sum
// of the slow ones.
package managerd

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/tier"
	"repro/internal/units"
	"repro/internal/wire"
)

// Config parametrises the daemon.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7077". Port 0
	// selects an ephemeral port (see Server.Addr).
	Addr string
	// Listener, when non-nil, is served instead of binding Addr — the
	// in-process harness hands the daemon a fault-injecting in-memory
	// listener this way. The server takes ownership and closes it on Stop.
	Listener net.Listener
	// CommandTimeout bounds each outbound command/heartbeat write: a
	// stalled agent connection (full TCP buffer, slow reader) fails the
	// write after this long — counted in CommandErrors and the connection
	// dropped — instead of wedging its sender goroutine indefinitely. Zero
	// defaults to the control period.
	CommandTimeout time.Duration
	// Model is the fleet's power profile model (formula 1 runs centrally).
	Model power.Model
	// Policy is the target set selection policy.
	Policy policy.Policy
	// Tg is Algorithm 1's steady-green patience, in cycles.
	Tg int
	// ControlEvery is the control cycle period τ.
	ControlEvery time.Duration
	// Thresholds are the administrator-set operating thresholds, used as
	// long as Learn is nil.
	Thresholds power.Thresholds
	// StaleAfter marks samples older than this stale (dropped from the
	// cycle's view); zero defaults to 3 control periods.
	StaleAfter time.Duration
	// LostAfter marks a node lost when its newest sample is older than
	// this (a disconnected node is lost immediately). Zero defaults to
	// 3×StaleAfter; values below StaleAfter are clamped up to it.
	LostAfter time.Duration
	// FlapWindow and FlapLimit drive quarantine: FlapLimit or more
	// (re)connects within FlapWindow quarantines the node. Zero FlapWindow
	// defaults to 15s; zero FlapLimit defaults to 6; negative FlapLimit
	// disables quarantine.
	FlapWindow time.Duration
	FlapLimit  int
	// Quarantine is the minimum time a quarantined node stays excluded
	// from the candidate set; zero defaults to 30s.
	Quarantine time.Duration
	// HeartbeatEvery sends a ping to every agent each this many control
	// cycles, so agent dead-man switches see manager liveness even through
	// long green stretches with no commands. Zero defaults to 1; negative
	// disables heartbeats.
	HeartbeatEvery int
	// HA is the crash-recovery journal (learner state and last-commanded
	// levels, reloaded by New) and the leadership lease.
	daemon.HA
	// Shards is the number of node-state shards, rounded up to a power of
	// two. More shards cut contention between agent readers and the
	// control loop at large fleets; zero defaults to 32.
	Shards int
	// FanoutWorkers is the parallelism of a control cycle, the cycle's
	// own goroutine included: the sweep of the shards (health, sample
	// collection, command upkeep) runs on the cycle's goroutine and
	// FanoutWorkers − 1 helpers, and a cycle's commands are written by
	// its own goroutine and at most FanoutWorkers − 1 writers
	// (sender.go). One runs both on the cycle's goroutine alone. Zero
	// defaults to GOMAXPROCS.
	FanoutWorkers int
	// Learn, when non-nil, enables §III.A threshold learning: the daemon
	// starts from Thresholds, observes the fleet's peak for Training of
	// wall time, then re-derives the thresholds from the lifetime peak
	// every AdjustEvery cycles.
	Learn *LearnConfig
	// MetricsAddr, when non-empty, serves GET /metrics (Prometheus text
	// exposition of the obs registry) and GET /debug/cycles (the last-N
	// staged cycle timelines as JSON) on this address. Port 0 selects an
	// ephemeral port (see Server.MetricsAddr).
	MetricsAddr string
	// ExternalControl turns the daemon into a transport gateway: the
	// wall-clock control loop is not started, and an external driver runs
	// the control law by pushing samples and cycling through
	// StartExternalCycle from the moment it began (external.go). The daemon backend uses this to
	// run core's Algorithm 1 — the one control law — over the wire on a
	// virtual clock.
	ExternalControl bool

	// ReplicaAddr, when non-empty, binds a second listener served
	// identically to Addr — a dedicated endpoint for journal followers
	// and status probes that keeps replication off the agent accept path.
	ReplicaAddr string

	// --- Capping federation (federate.go) ---

	// CoordinatorAddrs, when non-empty, puts the daemon in governed mode:
	// it manages one cabinet of a federated fleet, dialing the
	// coordinator's HA group in rotation, streaming cab_report frames and
	// running under the power band granted in cab_budget frames instead
	// of static Thresholds. Mutually exclusive with Learn (the
	// coordinator owns the global budget; a cabinet must not re-derive
	// its own).
	CoordinatorAddrs wire.Group
	// CoordinatorDial, when non-nil, replaces the dial of
	// CoordinatorAddrs — the harness injects faultnet connections here.
	// Setting it alone (no CoordinatorAddrs) also enables governed
	// mode.
	CoordinatorDial func() (net.Conn, error)
	// Cabinet is this manager's cabinet index, carried on every report so
	// the coordinator knows which breaker column it is (pdist.CabinetOf).
	Cabinet int
	// ReportEvery, BudgetGrace and FailsafeBudget are the cabinet-tier
	// dead-man switch, mirroring agentd's: a report every ReportEvery, and
	// after BudgetGrace control periods of coordinator silence the daemon
	// stops enforcing its last grant and floors itself to FailsafeBudget.
	// Zero values take daemon.Chassis.Govern's defaults: the control
	// period, daemon.DefaultBudgetGrace and Thresholds (hold the static
	// band). A deliberately low band makes an isolated cabinet shed to its
	// floor, which is the paper's safe posture for a cabinet that can no
	// longer see the global budget.
	ReportEvery    time.Duration
	BudgetGrace    int
	FailsafeBudget power.Thresholds

	// RecordCycle, when non-nil, receives one scenario.CycleRecord per
	// capping cycle — the sensed power, thresholds in force, classified
	// state, candidate snapshot and the Algorithm-1 actions issued. The
	// records feed scenario.CheckAlgorithmOne in federation tests, so
	// the daemon's control law is checked by the same invariant checker
	// as the simulator's. Called from the control-loop goroutine.
	RecordCycle func(scenario.CycleRecord)
}

// LearnConfig parametrises daemon-side threshold learning.
type LearnConfig struct {
	// PMax seeds the learner's initial P_peak.
	PMax units.Watts
	// Training is the uncapped observation window (wall time).
	Training time.Duration
	// AdjustEvery is t_p in control cycles; zero defaults to 60.
	AdjustEvery int
}

// agentConn is one connected agent: the connection and the outbox its
// on-demand sender goroutine drains when the link is backed up
// (sender.go). What the agent last reported is its node's (nodeRec), not
// the connection's.
type agentConn struct {
	id       node.ID
	conn     *wire.Conn
	accepted uint64 // accept-order stamp (see serveConn)
	maxLevel int

	// Outbox; guarded by obMu (ordered strictly below shard mutexes).
	// obCmd is held by value with obHas as its presence flag: a command
	// enqueue is a struct copy into memory the connection already owns,
	// so the steady-state fan-out path allocates nothing per command.
	obMu      sync.Mutex
	obCmd     pendingCmd
	obHas     bool
	obPing    bool
	obFlush   bool // a frame written through in part: the sender writes its tail
	obClosed  bool
	obSending bool   // a sender goroutine is draining the outbox (sender.go)
	obSeq     uint64 // the newest command's seq written or queued: older ones are dropped
	// sender is runSender bound to this connection, built once and kept:
	// `go f(args)` would allocate a closure per node per command burst.
	sender func()
	// armedUntil is the write deadline set on conn; owned by the running
	// sender, handed from one to the next through obMu.
	armedUntil time.Time
}

// cmdState tracks the lifecycle of the newest command issued to one node;
// the zero value (issued=false) is a node never commanded. A command stays
// in flight (acked=false) until the agent echoes its sequence number;
// unacked commands are retried each cycle, and an acked level that later
// disagrees with the agent's reported level triggers reconciliation under
// a fresh sequence number (see sweep). All access under the owning shard's
// mutex.
type cmdState struct {
	issued    bool
	level     int
	seq       uint64
	sentCycle int
	acked     bool
	retries   int
}

// inFlight is 1 for a command issued and not yet acknowledged, else 0:
// the command's share of shard.unacked.
func (cs cmdState) inFlight() int {
	if cs.issued && !cs.acked {
		return 1
	}
	return 0
}

// Server is a running manager daemon: the daemon chassis (listeners,
// routing, replication, leased leadership, lifecycle) around the node
// store, the senders and the control loop.
type Server struct {
	*daemon.Chassis
	cfg Config

	// nodes is the sharded table of per-node records; see store.go for the
	// locking contract.
	nodes *store

	// curve is cfg.Model compiled; every estimate the sweep makes reads it.
	curve power.Curve

	// Cycle scratch, reused so steady-state sensing allocates nothing per
	// cycle (nothing a cycle calls retains snap). cycleMu serializes cycles
	// outright (the ticker loop and an explicit StepCycle could otherwise
	// interleave) and makes the scratch single-owner; it is taken before,
	// and never while holding, any other lock.
	cycleMu    sync.Mutex
	cycleParts []cyclePart
	snap       policy.Snapshot

	// mgrMu guards mgr (the control loop cycles it while a status probe
	// reads its counters). It may be held while taking a shard mutex (the
	// actuator does, inside Cycle); never the reverse.
	mgrMu sync.Mutex
	mgr   *manager.Manager

	// stateMu guards the control-plane scalars below.
	stateMu sync.Mutex
	thr     power.Thresholds // current thresholds, persisted by the journal

	learner *power.Learner // touched only by the control-loop goroutine (and New/Stop)
	started time.Time

	// Protocol state (not telemetry): the cycle number stamps commands,
	// seq numbers commands.
	cycleN atomic.Int64
	seq    atomic.Uint64

	// trace is the chassis's cycle recorder: each cycle's staged timeline
	// for /debug/cycles. The instrument pointers below are cached at New
	// from the chassis's registry — the single source of truth behind the
	// chassis's status reply, /metrics and the simulator's Stats; their names
	// are the obs tags on wire.StatusReply.
	trace *obs.CycleRecorder

	samplesRecv   *obs.Counter // samples accepted over the wire
	stale         *obs.Counter
	cmdErrs       *obs.Counter
	staleConnErrs *obs.Counter
	cmdAcks       *obs.Counter
	cmdRetries    *obs.Counter
	reconciles    *obs.Counter
	quarantines   *obs.Counter
	coalesced     *obs.Counter
	decodeErrs    *obs.Counter // corrupt frames tolerated and skipped
	cyclesC       *obs.Counter // control cycles completed (read by refreshGauges)

	busyMicros        *obs.Gauge
	cpuUtilise        *obs.Gauge
	lastPowerW        *obs.Gauge
	plW, phW          *obs.Gauge
	trainedG          *obs.Gauge
	lifetimePeakW     *obs.Gauge
	lastCycleMicros   *obs.Gauge
	maxCycleMicros    *obs.Gauge
	lastFanoutMicros  *obs.Gauge
	maxFanoutMicros   *obs.Gauge
	lastCollectMicros *obs.Gauge
	collectMicros     *obs.Gauge
	agentsG           *obs.Gauge
	recordsG          *obs.Gauge // node records in the table, connected or not: never shrinks
	driftedG          *obs.Gauge
	healthyG          *obs.Gauge
	staleNodesG       *obs.Gauge
	lostG             *obs.Gauge
	quarNodesG        *obs.Gauge

	// journal is the chassis's: the crash-recovery store (journal.go) and
	// the replication source it publishes to followers.
	journal *replica.Store

	// gov is the upward federation session (federate.go); nil unless
	// governed.
	gov      *tier.Governor
	demandWG *obs.Gauge

	// senders counts the running per-node senders and cycle writers
	// (sender.go), which the chassis does not start and so cannot wait for.
	senders sync.WaitGroup
	// spareQueue is a finished cycle's write queue, kept for the next one.
	spareQueue atomic.Pointer[writeQueue]
	// senderStarts and writerStarts count the goroutines the outbound path
	// started (read by tests: how many a cycle or a tick costs).
	senderStarts, writerStarts atomic.Int64
}

// New validates the configuration and creates an unstarted server. When
// JournalPath names a readable journal, the learner state and
// last-commanded levels are restored from it — the daemon resumes capping
// without a fresh training window and reconciles reconnecting agents
// against the journaled levels. A journal path that cannot be written is
// refused (see daemon.HA).
func New(cfg Config) (*Server, error) {
	if cfg.ControlEvery <= 0 {
		return nil, fmt.Errorf("managerd: need positive control period")
	}
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 0 || cfg.FanoutWorkers < 0 {
		return nil, fmt.Errorf("managerd: negative shard/worker count")
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.ControlEvery
	}
	if cfg.LostAfter <= 0 {
		cfg.LostAfter = 3 * cfg.StaleAfter
	}
	if cfg.LostAfter < cfg.StaleAfter {
		cfg.LostAfter = cfg.StaleAfter
	}
	if cfg.FlapWindow <= 0 {
		cfg.FlapWindow = 15 * time.Second
	}
	if cfg.FlapLimit == 0 {
		cfg.FlapLimit = 6
	}
	if cfg.Quarantine <= 0 {
		cfg.Quarantine = 30 * time.Second
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 1
	}
	if cfg.CommandTimeout <= 0 {
		cfg.CommandTimeout = cfg.ControlEvery
	}
	if cfg.Shards == 0 {
		cfg.Shards = 32
	}
	if cfg.FanoutWorkers == 0 {
		cfg.FanoutWorkers = runtime.GOMAXPROCS(0)
	}
	governed := len(cfg.CoordinatorAddrs) > 0 || cfg.CoordinatorDial != nil
	if governed {
		if cfg.Learn != nil {
			return nil, fmt.Errorf("managerd: governed mode is incompatible with threshold learning (the coordinator owns the budget)")
		}
		if cfg.Cabinet < 0 {
			return nil, fmt.Errorf("managerd: negative cabinet index %d", cfg.Cabinet)
		}
	}
	var learner *power.Learner
	if cfg.Learn != nil {
		adj := cfg.Learn.AdjustEvery
		if adj <= 0 {
			adj = 60
		}
		var err error
		if learner, err = power.NewLearner(cfg.Learn.PMax, cfg.Learn.Training, adj); err != nil {
			return nil, err
		}
	}
	srv := &Server{
		cfg:     cfg,
		nodes:   newStore(cfg.Shards),
		curve:   cfg.Model.Compile(),
		thr:     cfg.Thresholds,
		learner: learner,
	}
	listen := []daemon.Endpoint{{Addr: cfg.Addr, Listener: cfg.Listener}}
	if cfg.ReplicaAddr != "" {
		listen = append(listen, daemon.Endpoint{Addr: cfg.ReplicaAddr})
	}
	hooks := daemon.Hooks{
		Session: srv.serveConn,
		Shed:    srv.shed,
		Refresh: srv.refreshGauges,
	}
	if !cfg.ExternalControl {
		hooks.Cycle = func() { srv.cycle() }
	}
	var err error
	srv.Chassis, err = daemon.New(daemon.Options{
		Listen:       listen,
		MetricsAddr:  cfg.MetricsAddr,
		ControlEvery: cfg.ControlEvery,
		HA:           cfg.HA,
		WriteTimeout: cfg.CommandTimeout,
	}, hooks)
	if err != nil {
		return nil, fmt.Errorf("managerd: %w", err)
	}
	srv.journal = srv.Journal()
	reg := srv.Obs()
	srv.trace = srv.CycleTrace()
	mgr, err := manager.New(manager.Config{Tg: cfg.Tg, Policy: cfg.Policy, Obs: reg, Trace: srv.trace})
	if err != nil {
		srv.Stop()
		return nil, err
	}
	srv.mgr = mgr

	srv.samplesRecv = reg.Counter("samples_received")
	srv.stale = reg.Counter("dropped_stale")
	srv.cmdErrs = reg.Counter("command_errors")
	srv.staleConnErrs = reg.Counter("stale_conn_errors")
	srv.cmdAcks = reg.Counter("command_acks")
	srv.cmdRetries = reg.Counter("command_retries")
	srv.reconciles = reg.Counter("reconciles")
	srv.quarantines = reg.Counter("quarantines")
	srv.coalesced = reg.Counter("coalesced_cmds")
	srv.decodeErrs = reg.Counter("decode_errors")
	srv.cyclesC = reg.Counter("cycles")

	srv.busyMicros = reg.Gauge("busy_micros")
	srv.cpuUtilise = reg.Gauge("cpu_utilisation")
	srv.lastPowerW = reg.Gauge("last_power_w")
	srv.plW = reg.Gauge("pl_w")
	srv.phW = reg.Gauge("ph_w")
	srv.trainedG = reg.Gauge("trained")
	srv.lifetimePeakW = reg.Gauge("lifetime_peak_w")
	srv.lastCycleMicros = reg.Gauge("last_cycle_micros")
	srv.maxCycleMicros = reg.Gauge("max_cycle_micros")
	srv.lastFanoutMicros = reg.Gauge("last_fanout_micros")
	srv.maxFanoutMicros = reg.Gauge("max_fanout_micros")
	srv.lastCollectMicros = reg.Gauge("last_collect_micros")
	srv.collectMicros = reg.Gauge("collect_micros")
	srv.agentsG = reg.Gauge("agents")
	srv.recordsG = reg.Gauge("node_records")
	srv.driftedG = reg.Gauge("drifted")
	srv.healthyG = reg.Gauge("healthy_nodes")
	srv.staleNodesG = reg.Gauge("stale_nodes")
	srv.lostG = reg.Gauge("lost_nodes")
	srv.quarNodesG = reg.Gauge("quarantined_nodes")

	srv.demandWG = reg.Gauge("demand_w")

	reg.Gauge("shards").SetInt(int64(len(srv.nodes.shards)))
	reg.Gauge("cabinet").SetInt(int64(cfg.Cabinet))
	if governed {
		if srv.gov, err = srv.Govern(srv.governorConfig(), cfg.BudgetGrace); err != nil {
			srv.Stop()
			return nil, fmt.Errorf("managerd: %w", err)
		}
	}
	srv.plW.Set(float64(cfg.Thresholds.PL))
	srv.phW.Set(float64(cfg.Thresholds.PH))
	srv.trainedG.Set(1) // fixed thresholds cap from the first cycle
	if learner != nil {
		srv.trainedG.Set(b2f(learner.Trained()))
	}
	if !srv.journal.Empty() {
		srv.restoreFromJournal(srv.journal.State())
	}
	return srv, nil
}

// Start binds the listeners and launches the accept, control, heartbeat
// and (when MetricsAddr is set) observability HTTP loops.
func (s *Server) Start() error {
	s.started = time.Now()
	if err := s.Chassis.Start(); err != nil {
		return err
	}
	if s.cfg.HeartbeatEvery > 0 {
		// Heartbeats ping every connected agent each HeartbeatEvery control
		// cycles. The pings carry no payload; their only job is to feed the
		// agents' dead-man switches so a node behind a live manager never
		// self-degrades just because the fleet has been green (no commands)
		// for a long stretch. The tick writes each ping through onto a link
		// with room; a backed-up link's ping goes to the node's own sender
		// (folded into a command write if one is pending), so a slow reader
		// stalls only its own heartbeat.
		var scratch []*agentConn
		s.Every(time.Duration(s.cfg.HeartbeatEvery)*s.cfg.ControlEvery, func() { scratch = s.pingAll(scratch) })
	}
	return nil
}

// Stop shuts the daemon down and waits for its goroutines; the chassis
// writes a final journal snapshot, so a clean restart resumes exactly
// where this instance left off.
func (s *Server) Stop() {
	s.Chassis.Stop()
	// Every reader has returned and every outbox is retired, so no sender
	// can start any more; writers of a cycle still finishing are counted
	// too.
	s.senders.Wait()
}

// shed closes every registered agent connection, which unblocks its
// reader (receive) and a sender mid-write, and retires its outbox so no
// new sender can start (deposition and Stop).
func (s *Server) shed() {
	var acs []*agentConn
	for _, sh := range s.nodes.shards {
		acs = sh.conns(acs)
		for _, ac := range acs {
			ac.conn.Close()
			s.retireOutbox(ac)
		}
	}
}

// serveConn is the chassis's session handler: one agent connection's
// handshake, from its hello (first, already read) to its registration, on
// the goroutine that decoded the hello. It returns the connection's life
// after that (receive) or nil to refuse it. accepted is its accept-order
// stamp: of two connections claiming one node, the higher is the newer.
func (s *Server) serveConn(conn *wire.Conn, first *wire.Envelope, accepted uint64) func() {
	if first.Type != wire.KindHello {
		return nil
	}
	// Epoch fencing. An agent that has seen a newer leader tells us in
	// its hello: we are deposed and must not command it.
	if s.Fenced(first.Epoch) {
		return nil
	}
	// The hello reply announces the epoch and the codec choice, and is the
	// first manager→agent frame (nothing can enqueue to this connection
	// until it is registered below), so the agent knows both before any
	// command arrives. A manager with neither to announce sends none.
	codec := wire.Choose(first)
	var reply *wire.Envelope
	if s.Epoch() > 0 || codec == wire.CodecBinary {
		reply = &wire.Envelope{Type: wire.KindHello, Epoch: s.Epoch()}
	}
	if conn.Confirm(codec, reply) != nil {
		return nil
	}

	id := node.ID(first.Node)
	ac := &agentConn{id: id, conn: conn, accepted: accepted, maxLevel: max(first.MaxLevel, 0)}
	now := time.Now()
	sh := s.nodes.of(id)
	sh.mu.Lock()
	// Whichever connection wins below, the node connected once more.
	rec := noteConnect(sh, id, now, &s.cfg, s.quarantines)
	old := rec.ac
	if old != nil && old.accepted > accepted {
		// Hellos are handled on per-connection goroutines, so a bounced
		// connection's hello can be processed after its successor's.
		// Evicting the later-accepted, live connection for this dead one
		// would leave the node with neither: refuse this one instead.
		sh.mu.Unlock()
		return nil
	}
	rec.ac = ac
	// Seed the reading from the hello's self-reported level: a manager
	// coming back from a crash learns every node's actual level before
	// the first sample arrives, so reconciliation can start immediately.
	rec.last = manager.AgentReading{ID: id, Level: ac.clampLevel(first.Level), MaxLevel: ac.maxLevel}
	rec.lastAt = now
	if old == nil {
		// A replaced connection's own teardown sees itself already
		// deregistered, so the count moves only for a new one.
		sh.nConns++
	}
	sh.mu.Unlock()
	if old != nil {
		// A redial replaced the connection: retire the old epoch so any
		// failure it still surfaces is not charged to the node (see
		// noteSendError).
		old.conn.Close()
		s.retireOutbox(old)
	}
	if s.Deposed() {
		// Deposed between the fence check and the registration: the shed
		// may have run before this connection was there to close. receive
		// tears it down.
		conn.Close()
	}
	return func() { s.receive(sh, rec, ac) }
}

// receive is a registered connection's reader: its stream of samples and
// command acks until it ends, then its teardown.
func (s *Server) receive(sh *shard, rec *nodeRec, ac *agentConn) {
	conn, id := ac.conn, ac.id
	defer conn.Close()
	var env wire.Envelope
	// The tolerant receive: corrupt frames are counted and skipped, fatal
	// decode errors and I/O errors drop the connection; the agent redials.
	// The reading is the node's: once a redial has replaced this connection
	// (rec.ac != ac), what it still delivers must not overwrite the
	// successor's.
	for skipped := s.decodeErrs.Inc; conn.Next(&env, skipped) == nil; {
		switch env.Type {
		case wire.KindSample:
			r := env.Reading()
			r.ID = id // trust the connection identity, not the payload
			r.Level, r.MaxLevel = ac.clampLevel(r.Level), ac.maxLevel
			sh.mu.Lock()
			if rec.ac == ac {
				rec.last, rec.lastAt = r, time.Now()
			}
			sh.mu.Unlock()
			s.samplesRecv.Inc()
		case wire.KindAck:
			s.ack(sh, rec, ac, env.Seq, env.Level)
		}
	}
	sh.mu.Lock()
	if rec.ac == ac {
		rec.ac = nil
		sh.nConns--
	}
	sh.mu.Unlock()
	s.retireOutbox(ac)
}

// ack settles rec's command if seq is its sequence number: the agent on
// connection ac applied it at level.
func (s *Server) ack(sh *shard, rec *nodeRec, ac *agentConn, seq uint64, level int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cs := &rec.cmd
	if !cs.issued || seq == 0 || cs.seq != seq {
		return
	}
	if !cs.acked {
		s.cmdAcks.Inc()
		sh.unacked--
	}
	cs.acked = true
	if l := ac.clampLevel(level); l != cs.level {
		// SetNodeLevel mirrored the commanded level; only a different
		// acked one needs the store's lock.
		cs.level = l
		s.journal.SetLevel(int(rec.id), l)
	}
	if rec.ac == ac {
		rec.last.Level = cs.level
	}
}

// clampLevel bounds a level a remote agent reported — in a hello, a sample
// or an ack — to the range its node can be in.
func (ac *agentConn) clampLevel(l int) int { return max(0, min(l, ac.maxLevel)) }

// actuator routes manager commands to agent connections, tagging each
// dispatch with the issuing cycle's fan-out tracker.
type actuator struct {
	s   *Server
	fan *fanout
}

// SetNodeLevel implements manager.Actuator: assign a sequence number,
// record the command in flight, and dispatch it to the node.
// Recording happens before the enqueue, so the journal mirror (written
// under the shard lock) always sees the newest commanded level — a
// snapshot taken mid-fan-out can never persist a superseded one. Unacked
// commands are retried by the next cycles' sweep.
func (a actuator) SetNodeLevel(id node.ID, level int) error {
	s := a.s
	sh := s.nodes.of(id)
	sh.mu.Lock()
	rec := sh.nodes[id]
	if rec == nil || rec.ac == nil {
		sh.mu.Unlock()
		s.cmdErrs.Inc()
		return fmt.Errorf("managerd: no agent for node %d", id)
	}
	ac := rec.ac
	seq := s.seq.Add(1)
	sh.setCmd(rec, cmdState{issued: true, level: level, seq: seq, sentCycle: int(s.cycleN.Load())})
	// Mirror into the journal under the same shard lock, so the mirror
	// orders level updates exactly as the record does (the store's own
	// mutex is a leaf below the shard mutexes).
	s.journal.SetLevel(int(id), level)
	sh.mu.Unlock()
	s.dispatch(ac, level, seq, a.fan)
	return nil
}

// dispatch hands one command to its node: through the issuing cycle's
// writers, or, outside a cycle, by the caller itself (deliver). An outbox
// closed mid-teardown just drops the write — the command stays on the
// node's record and the retry path re-sends it once the node redials.
func (s *Server) dispatch(ac *agentConn, level int, seq uint64, fan *fanout) {
	pc := pendingCmd{level: level, seq: seq}
	if fan != nil {
		fan.dispatch(ac, pc)
		return
	}
	s.deliver(ac, pc, true)
}

// pingAll is one heartbeat tick, written through by the ticking goroutine
// itself wherever a link is idle. scratch is reused for every shard's
// connection list and handed back for the next tick.
func (s *Server) pingAll(scratch []*agentConn) []*agentConn {
	for _, sh := range s.nodes.shards {
		scratch = sh.conns(scratch)
		for _, ac := range scratch {
			s.deliver(ac, pendingCmd{}, false)
		}
	}
	return scratch
}

// forEachShard sweeps every shard through fn, FanoutWorkers wide: the
// caller starts FanoutWorkers − 1 helpers and then takes shards itself
// from the same index. fn receives distinct shards concurrently, never
// the same shard twice, so a per-shard result needs no lock — but fn must
// build it in a local copy and store it into a slice indexed by shard
// once, at the end: neighbouring shards go to different workers, and an
// element written in place per node takes its cache line from the core
// writing the next one.
//
// The wait counts shards, not workers: the caller waits only for shards a
// helper has taken and not yet finished. A helper that is scheduled after
// the caller has taken the last shard finds the index spent and exits
// having run nothing, so the sweep never parks behind a goroutine that has
// only been started (TestSweepCallerRunsEveryShard).
func (s *Server) forEachShard(fn func(i int, sh *shard)) {
	n := len(s.nodes.shards)
	helpers := min(s.cfg.FanoutWorkers, n) - 1
	if helpers <= 0 {
		for i, sh := range s.nodes.shards {
			fn(i, sh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	take := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, s.nodes.shards[i])
			wg.Done()
		}
	}
	for range helpers {
		go take()
	}
	take()
	wg.Wait()
}

// resend is one command the sweep decided to write again.
type resend struct {
	ac    *agentConn
	level int
	seq   uint64
}

// cyclePart is one shard's share of a sweep, reused across cycles (slices
// keep their capacity; see Server.cycleParts).
type cyclePart struct {
	// states are the shard's candidates, evaluated: a view of its region of
	// the policy snapshot, s.snap.Nodes[off:off+room] as the sweep laid it
	// out, or of storage of its own if the shard spilled.
	states    []policy.NodeState
	off, room int
	// spilled is set when the shard gained records between the sweep's
	// sizing and its walk, so its candidates could overrun the region.
	spilled bool
	// readings are the shard's fresh readings, quarantined included, in
	// registration order: collected for an external driver only.
	readings []manager.AgentReading
	resends  []resend
	adopts   []node.ID
	p        units.Watts // Σ estimates over every fresh reading, quarantined included
	demand   units.Watts // Σ estimates at each fresh node's top level; governed only
	stale    int
}

// sweep is a cycle's one pass over the node table: every shard on the
// worker pool, every record visited once, in registration order, under its
// shard's lock. Per node it classifies health (health.go; the shard's
// cached tallies are rewritten from the pass), tallies drift, takes the
// reading if it arrived at or after cut — t0 − StaleAfter for the control
// loop, the moment it started pushing for an external driver, the only
// thing the two callers differ in — evaluates it, the cycle's one
// evaluation per node, and runs the command lifecycle:
//
//   - commands unacked since a previous cycle are retried under the same
//     sequence number (the command is idempotent, the ack will match);
//   - acked commands whose level disagrees with the node's reported level
//     are reconciled — reissued at the commanded level under a fresh
//     sequence number (with a two-cycle grace so an ack in flight is not
//     mistaken for drift);
//   - every node commanded below its top level is (re)adopted into
//     A_degraded. For nodes this manager instance degraded itself that is
//     a no-op; for nodes inherited from the journal or found self-degraded
//     by their dead-man switch (including the no-drift case where the
//     journaled and reported levels agree at the floor) it is what makes
//     the steady-green restore path lift them instead of orphaning them.
//
// A candidate's evaluation is written straight into its shard's region of
// the policy snapshot: before it takes any lock the sweep lays s.snap.Nodes
// out as one region per shard, each as long as the shard's record count,
// so the reading is read where the record holds it and its state written
// where the policy reads it — no staging copy, and sensed merges nothing
// but the gaps. Regions are disjoint runs of whole node states, so workers
// share at most the cache line at a boundary.
//
// Quarantined nodes contribute to the power estimate but are excluded
// from the policy snapshot and the lifecycle: per §II.A they are treated
// as A_uncontrollable — their consumption is real, but commands down a
// flapping link are wasted.
//
// The re-sends and adoptions are only decided here; upkeep acts on them.
// Caller holds cycleMu (the parts and the snapshot are the shared scratch).
func (s *Server) sweep(cycleN int, t0, cut time.Time) []cyclePart {
	if len(s.cycleParts) != len(s.nodes.shards) {
		s.cycleParts = make([]cyclePart, len(s.nodes.shards))
	}
	parts := s.cycleParts
	total := 0
	for i, sh := range s.nodes.shards {
		parts[i].off, parts[i].room = total, int(sh.records.Load())
		total += parts[i].room
	}
	s.snap.Nodes = slices.Grow(s.snap.Nodes[:0], total)[:total]
	nodes := s.snap.Nodes
	governed, collect := s.gov != nil, s.cfg.ExternalControl
	s.forEachShard(func(i int, sh *shard) {
		g := parts[i]
		g.readings, g.resends, g.adopts = g.readings[:0], g.resends[:0], g.adopts[:0]
		g.p, g.demand, g.stale = 0, 0, 0
		var tally [healthQuarantined + 1]int
		drift := 0
		sh.mu.Lock()
		// A record registered since the sizing could make one candidate
		// too many for the region: the shard evaluates into storage of
		// its own, and sensed merges (rare: a hello racing the cycle).
		n := int(sh.records.Load())
		g.spilled = n > g.room
		dst := nodes[g.off : g.off+g.room]
		if g.spilled {
			dst = make([]policy.NodeState, n)
		}
		k := 0
		for _, chunk := range sh.chunks {
			for j := range chunk {
				// rec.ac is compared and handed on, never dereferenced: a
				// node is read from its record alone.
				rec := &chunk[j]
				cs, last := &rec.cmd, &rec.last
				state := rec.health.classify(rec.ac == nil, rec.lastAt, t0, &s.cfg)
				tally[state]++
				if rec.ac == nil {
					continue
				}
				// Drift is tallied before the freshness cut: a stale node can
				// still disagree with its commanded level.
				if cs.issued && last.Level != cs.level {
					drift++
				}
				if rec.lastAt.Before(cut) {
					g.stale++
				} else {
					// PrevEst is last cycle's estimate; a cycle sat out
					// leaves 0. Governed cabinets also estimate each node at
					// its top level — the sum is the cabinet's uncapped
					// demand, which the coordinator weighs when dividing
					// the global budget.
					load := s.curve.Load(last.Delta)
					if state == healthQuarantined {
						g.p += s.curve.At(load, last.Level)
					} else {
						var prev units.Watts
						if rec.estCycle == cycleN-1 {
							prev = rec.est
						}
						ns := &dst[k]
						k++
						manager.Sense(ns, s.curve, load, last, prev)
						rec.est, rec.estCycle = ns.Est, cycleN
						g.p += ns.Est
					}
					if governed {
						g.demand += s.curve.At(load, last.MaxLevel)
					}
					if collect {
						g.readings = append(g.readings, *last)
					}
				}
				if state == healthQuarantined {
					continue
				}
				switch {
				case !cs.issued:
					if last.Level < last.MaxLevel {
						sh.setCmd(rec, cmdState{issued: true, level: last.Level, acked: true, sentCycle: cycleN})
						s.journal.SetLevel(int(rec.id), cs.level)
					}
				case !cs.acked && cycleN > cs.sentCycle:
					cs.retries++
					cs.sentCycle = cycleN
					s.cmdRetries.Inc()
					g.resends = append(g.resends, resend{rec.ac, cs.level, cs.seq})
				case cs.acked && last.Level != cs.level && cycleN >= cs.sentCycle+2:
					cs.seq = s.seq.Add(1)
					cs.acked = false
					sh.unacked++
					cs.sentCycle = cycleN
					s.reconciles.Inc()
					g.resends = append(g.resends, resend{rec.ac, cs.level, cs.seq})
				}
				if cs.issued && cs.level < last.MaxLevel {
					g.adopts = append(g.adopts, rec.id)
				}
			}
		}
		sh.nHealthy, sh.nStale = tally[healthHealthy], tally[healthStale]
		sh.nLost, sh.nQuar = tally[healthLost], tally[healthQuarantined]
		sh.drifted = drift
		sh.mu.Unlock()
		g.states = dst[:k]
		parts[i] = g
	})
	return parts
}

// sensed closes a cycle's sensing stage — the sweep, whose cost is what
// Figure 5's collection-time curve measures: it totals the parts, closes
// the gaps stale, away and quarantined records left between the shards'
// regions of s.snap.Nodes — nothing to move when every node is fresh —
// and records the stage.
func (s *Server) sensed(parts []cyclePart, span *obs.CycleHandle, t0 time.Time) (p, demand units.Watts, stale int) {
	nodes, n, spilled := s.snap.Nodes, 0, false
	for i := range parts {
		p += parts[i].p
		demand += parts[i].demand
		stale += parts[i].stale
		n += len(parts[i].states)
		spilled = spilled || parts[i].spilled
	}
	if spilled {
		// A shard outgrew its region: concatenate every part into new
		// storage, since the in-place parts still view the old.
		nodes = make([]policy.NodeState, 0, n)
	}
	w := 0
	for i := range parts {
		k := len(parts[i].states)
		if spilled {
			nodes = append(nodes, parts[i].states...)
		} else if parts[i].off != w {
			copy(nodes[w:w+k], parts[i].states) // w ≤ off: a move down, never over an unmoved part
		}
		w += k
	}
	s.snap = policy.Snapshot{Nodes: nodes[:w]}
	collect := time.Since(t0)
	span.Stage(obs.StageSense, collect, fmt.Sprintf("readings=%d stale=%d", w, stale))
	cus := collect.Microseconds()
	s.lastCollectMicros.SetInt(cus)
	s.collectMicros.Add(float64(cus))
	return p, demand, stale
}

// upkeep acts on the sweep's lifecycle decisions: adopted nodes join
// A_degraded and the re-sends go to the cycle's writers. It runs before
// Algorithm 1, so retries and reconciles reflect last cycle's state, not
// commands issued moments ago.
func (s *Server) upkeep(parts []cyclePart, fan *fanout) {
	s.mgrMu.Lock()
	for i := range parts {
		for _, id := range parts[i].adopts {
			s.mgr.Adopt(id)
		}
	}
	s.mgrMu.Unlock()
	for i := range parts {
		for _, r := range parts[i].resends {
			s.dispatch(r.ac, r.level, r.seq, fan)
		}
	}
}

// endCycle closes a cycle's span and accounts its busy time.
func (s *Server) endCycle(span *obs.CycleHandle, t0 time.Time) {
	span.End()
	busy := time.Since(t0)
	us := busy.Microseconds()
	s.lastCycleMicros.SetInt(us)
	s.maxCycleMicros.Max(float64(us))
	s.busyMicros.Add(float64(busy) / float64(time.Microsecond))
}

// cycle runs one control cycle: gather fresh readings, estimate system
// power, classify, select and command. The daemon has no facility meter,
// so system power is the sum of per-node estimates — the documented
// substitution for deployments without a meter (the Observability
// assumption allows estimation "to a sufficient accuracy").
//
// The returned fan-out tracker completes once every command the cycle
// issued has been written or abandoned; the cycle itself does not wait
// for it (the senders of backed-up links run concurrently; whatever its
// writers had not taken when the enqueue ended, the cycle wrote itself).
func (s *Server) cycle() *fanout {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	t0 := time.Now()
	cycleN := int(s.cycleN.Add(1))
	span := s.trace.Begin()
	fan := s.newFanout(t0, span)

	parts := s.sweep(cycleN, t0, t0.Add(-s.cfg.StaleAfter))
	p, demand, nStale := s.sensed(parts, span, t0)
	if nStale > 0 {
		s.stale.Add(int64(nStale))
	}

	thr := s.cfg.Thresholds
	capping := true
	if s.learner != nil {
		thr = s.learner.Observe(time.Since(s.started), p)
		capping = s.learner.Trained()
	}
	if s.gov != nil {
		thr = s.gov.Thresholds(t0)
		s.gov.NoteSense(float64(p), float64(demand))
		s.demandWG.Set(float64(demand))
	}
	s.stateMu.Lock()
	s.thr = thr
	s.stateMu.Unlock()
	s.plW.Set(float64(thr.PL))
	s.phW.Set(float64(thr.PH))
	if s.learner != nil {
		s.trainedG.Set(b2f(capping))
		s.lifetimePeakW.Set(float64(s.learner.LifetimePeak()))
	} else {
		s.lifetimePeakW.Max(float64(p))
	}

	s.upkeep(parts, fan)

	s.snap.P, s.snap.PL = p, thr.PL
	if capping {
		s.mgrMu.Lock()
		st, actions, _ := s.mgr.Cycle(p, thr, &s.snap, actuator{s, fan})
		s.mgrMu.Unlock()
		if s.cfg.RecordCycle != nil {
			s.cfg.RecordCycle(cycleRecord(cycleN, p, thr, st, &s.snap, actions))
		}
	}
	fan.finishEnqueue()

	// Close the cycle in the journal: at most one incremental entry,
	// streamed to any standby follower — which is what bounds a warm
	// standby's staleness to one control cycle.
	s.commitJournalCycle(cycleN, thr)

	s.endCycle(span, t0)
	s.lastPowerW.Set(float64(p))
	return fan
}

// cycleRecord converts one capping cycle into the scenario trace schema,
// so daemon-driven fleets are checked by the same CheckAlgorithmOne
// invariants as simulator traces. The node list is the policy snapshot
// (pre-actuation), exactly as the scenario runner records it.
func cycleRecord(cycleN int, p units.Watts, thr power.Thresholds, st power.State, snap *policy.Snapshot, actions []manager.Action) scenario.CycleRecord {
	rec := scenario.CycleRecord{
		Cycle: cycleN, PowerW: float64(p),
		PLW: float64(thr.PL), PHW: float64(thr.PH),
		State: st.String(), Online: len(snap.Nodes),
		Nodes: make([]scenario.NodeRecord, 0, len(snap.Nodes)),
	}
	for _, ns := range snap.Nodes {
		rec.Nodes = append(rec.Nodes, scenario.NodeRecord{
			ID: int(ns.ID), Level: ns.Level, MaxLevel: ns.MaxLevel,
			Idle: ns.Idle, AtLowest: ns.AtLowest,
		})
	}
	for _, a := range actions {
		rec.Actions = append(rec.Actions, scenario.ActionRecord{Node: int(a.Node), Level: a.Level})
	}
	return rec
}

// StepCycle runs one control cycle synchronously and blocks until its
// command fan-out completes (every command it issued was written or
// abandoned to the retry path), returning the fan-out completion
// latency. It is a test and benchmark hook: drive it with a very long
// ControlEvery so the ticker-driven loop stays out of the way.
func (s *Server) StepCycle() time.Duration {
	fan := s.cycle()
	<-fan.done
	return fan.dur
}

// refreshGauges publishes the registry gauges that are derived from
// swept state rather than bumped inline: connected agents, drift, node
// health tallies and the management-cost ratio. It runs before every
// status reply and /metrics render. The per-node walk lives in the sweep
// that already visits every record; this reads the cached per-shard
// tallies, so a status probe costs O(shards) regardless of fleet size.
func (s *Server) refreshGauges() {
	var drifted, healthy, staleN, lost, quar, conns int
	for _, sh := range s.nodes.shards {
		sh.mu.Lock()
		drifted += sh.drifted
		healthy += sh.nHealthy
		staleN += sh.nStale
		lost += sh.nLost
		quar += sh.nQuar
		conns += sh.nConns
		sh.mu.Unlock()
	}
	s.agentsG.SetInt(int64(conns))
	s.recordsG.SetInt(int64(healthy + staleN + lost + quar)) // every record is in exactly one state
	s.driftedG.SetInt(int64(drifted))
	s.healthyG.SetInt(int64(healthy))
	s.staleNodesG.SetInt(int64(staleN))
	s.lostG.SetInt(int64(lost))
	s.quarNodesG.SetInt(int64(quar))
	// Management cost: busy time over elapsed control time (Fig. 5's
	// utilisation curve). The cycles counter is the manager's.
	if cycles := s.cyclesC.Value(); cycles > 0 {
		elapsed := float64(time.Duration(cycles)*s.cfg.ControlEvery) / float64(time.Microsecond)
		s.cpuUtilise.Set(s.busyMicros.Value() / elapsed)
	}
}

// b2f maps a bool onto the 0/1 gauge convention.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
