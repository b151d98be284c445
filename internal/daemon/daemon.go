// Package daemon is the chassis under the plane's two server daemons, the
// cabinet manager (internal/managerd) and the federation coordinator
// (internal/fedd). Everything the two have in common as network daemons
// lives here once: the instrument registry and cycle recorder, the
// journal's publisher, the leadership epoch with its lease and
// self-deposition, the listeners and their accept loops, first-frame
// routing, the status reply (filled from the registry, status.go), the
// control ticker, the journal's lifecycle (open, the snapshots it counts,
// compact and close) and the stop/wait lifecycle.
//
// A daemon embeds *Chassis and supplies Hooks: how to serve one of its
// own sessions, what one control cycle does and how to shed its sessions,
// and, optionally, what it adds to a status reply; one that has a parent
// of its own also hands over its governor (Govern). What it does with its
// children or agents — Algorithm 1, budget division — is none of the
// chassis's business.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/tier"
	"repro/internal/wire"
)

// Endpoint is one address the daemon serves.
type Endpoint struct {
	// Addr is bound over TCP at Start; port 0 selects an ephemeral port.
	Addr string
	// Listener, when non-nil, is served instead of binding Addr (the
	// harness hands over fault-injecting in-memory listeners). The chassis
	// takes ownership and closes it.
	Listener net.Listener
}

// Options parametrises a chassis. The daemons' flat Config structs, which
// document these at length, map onto it inside their New.
type Options struct {
	// Listen lists the endpoints, all served identically; the first is the
	// one Addr reports.
	Listen []Endpoint
	// MetricsAddr, when non-empty, serves GET /metrics and /debug/cycles.
	MetricsAddr string
	// ControlEvery is the period of the ticker driving Hooks.Cycle.
	ControlEvery time.Duration

	// HA names the journal and the lease. New opens the journal from
	// JournalPath (or adopts Journal) and stamps it with the leadership
	// epoch; the chassis publishes its entries to followers, counts its
	// snapshots as journal_writes, and compacts and closes it at Stop.
	HA
	// WriteTimeout arms each frame written to a follower.
	WriteTimeout time.Duration
}

// HA is a daemon's high-availability configuration — its journal and its
// leased leadership — embedded in managerd.Config, fedd.Config and Options.
type HA struct {
	// JournalPath, when non-empty, persists the journal (snapshot + append
	// log) there, so a restart or a promoted standby resumes knowing what
	// it inherited; empty journals to memory. A missing or corrupt file
	// cold-starts; a location the journal cannot be written to refuses to
	// start. Ignored when Journal is set.
	JournalPath string
	// Journal, when non-nil, is an already-open store adopted in place of
	// opening JournalPath — a promoted standby hands its replicated copy
	// over this way. The daemon takes ownership and closes it at Stop.
	Journal *replica.Store
	// Lease, when non-nil, is the leadership lease. New claims the epoch
	// after both the lease file's and the journal's; Start writes it, and it
	// is renewed every Lease.Every while the daemon runs, watched by
	// standbys. A higher epoch appearing in it deposes the daemon. Without
	// a Lease the journal's epoch stands (zero leaves fencing off).
	Lease *replica.Lease
	// LeaseHolder names this instance in the lease file.
	LeaseHolder string
	// TakeoverMicros, when positive, is the leaderless time a promoted
	// standby absorbed before this daemon took over (surfaced as
	// last_takeover_micros and observed into the takeover_micros
	// histogram).
	TakeoverMicros int64
}

// Hooks is what a daemon supplies. Session and Shed are required.
type Hooks struct {
	// Session opens one inbound connection whose first frame was neither a
	// status probe nor a follower subscription: it does the daemon's half of
	// the handshake and returns the loop that serves the session until it
	// ends and closes conn, or nil to refuse it (the chassis closes conn).
	// first is the frame already read; accepted is the accept-order stamp
	// (of two connections claiming one identity, the higher is the newer).
	Session func(conn *wire.Conn, first *wire.Envelope, accepted uint64) (serve func())
	// Cycle runs one control cycle. The ticker calls it every ControlEvery
	// while the daemon leads; nil means no ticker (an external driver
	// cycles the daemon).
	Cycle func()
	// Status, when non-nil, decorates the reply to a status probe, whose
	// Stats the chassis has filled (Chassis.Status).
	Status func(env *wire.Envelope)
	// Shed closes every session connection. It runs when the daemon is
	// deposed and again when it stops, possibly concurrently.
	Shed func()
	// Refresh, when non-nil, publishes the daemon's gauges that are
	// derived from swept state; see Chassis.Refresh.
	Refresh func()
}

// Chassis is the running frame of one daemon.
type Chassis struct {
	opt   Options
	hooks Hooks

	reg   *obs.Registry
	trace *obs.CycleRecorder
	pub   *replica.Publisher
	epoch uint64

	journalAppends *obs.Counter
	journalWrites  *obs.Counter
	fencedHellos   *obs.Counter
	ticksDropped   *obs.Counter
	leaderG        *obs.Gauge
	replicaConnsG  *obs.Gauge
	replicaLagG    *obs.Gauge

	rtMu      sync.Mutex // the runtime's numbers (runtimeGauges), sampled by scrape only
	rtSamples [len(runtimeGauges)]metrics.Sample
	rtGauges  [len(runtimeGauges)]*obs.Gauge

	gov *tier.Governor // the session under our own parent; nil at a root

	lns        []net.Listener
	metricsLn  net.Listener
	metricsSrv *http.Server
	accepts    atomic.Uint64

	deposed atomic.Bool
	// leading ends (endLeading) when the daemon stops acting as leader, on
	// depose or Stop. Everything that acts as leader runs on it: lease
	// renewal, the control ticker, the governor's session under our parent.
	leading    context.Context
	endLeading context.CancelFunc
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

// New opens the journal (see HA.JournalPath), claims the leadership epoch —
// refusing if a rival claimed it first, or if it boots cold under another
// holder's live lease — and builds an unstarted chassis, which owns the
// journal: its daemon calls Stop. A refused New closes a journal it opened
// itself; a journal it was handed (a standby's copy) stays its caller's.
func New(opt Options, hooks Hooks) (*Chassis, error) {
	var err error
	// A daemon that opens its own journal boots cold; one handed a copy is
	// a standby promoting (WarmStandby), having watched its leader die.
	cold := opt.Journal == nil
	if cold {
		if opt.Journal, err = openJournal(opt.JournalPath); err != nil {
			return nil, err
		}
	}
	// The one claim rule: a leased daemon claims (replica.Lease.Claim) the
	// epoch after every one it can know of — the lease file's and its
	// journal's, which a promoted standby has raised to the last lease it
	// saw. An unleased one keeps its journal's.
	epoch := opt.Journal.Epoch()
	if opt.Lease != nil {
		if st, err := opt.Lease.Read(); err == nil {
			// A cold boot does not unseat a live leader: a former primary
			// restarted while its successor leads would depose it and lead
			// with its own pre-crash journal, losing the successor's
			// entries. Live is what a standby of the default budget would
			// not yet declare dead.
			age := time.Since(st.RenewedAt)
			if cold && st.Holder != opt.LeaseHolder && age <= DefaultMissBudget*opt.Lease.Period() {
				opt.Journal.Close()
				return nil, fmt.Errorf("epoch %d %w by %s, whose lease was renewed %v ago", st.Epoch, replica.ErrClaimed, st.Holder, age.Round(time.Millisecond))
			}
			epoch = max(epoch, st.Epoch)
		}
		if epoch, err = opt.Lease.Claim(epoch, opt.LeaseHolder); err != nil {
			if cold {
				opt.Journal.Close()
			}
			return nil, err
		}
	}
	reg := obs.NewRegistry()
	c := &Chassis{
		opt:   opt,
		hooks: hooks,
		reg:   reg,
		trace: obs.NewCycleRecorder(0, reg),
		pub:   replica.NewPublisher(opt.Journal, opt.WriteTimeout),

		journalAppends: reg.Counter("journal_appends"),
		journalWrites:  reg.Counter("journal_writes"),
		fencedHellos:   reg.Counter("fenced_hellos"),
		ticksDropped:   reg.Counter("ticks_dropped"),
		leaderG:        reg.Gauge("leader"),
		replicaConnsG:  reg.Gauge("replica_conns"),
		replicaLagG:    reg.Gauge("replica_lag_entries"),
	}
	for i, rg := range runtimeGauges {
		c.rtSamples[i].Name, c.rtGauges[i] = rg.metric, reg.Gauge(rg.gauge)
	}
	opt.Journal.OnCompact(c.journalWrites.Inc)
	c.leading, c.endLeading = context.WithCancel(context.Background())
	c.epoch = epoch
	opt.Journal.SetEpoch(epoch)
	reg.Gauge("epoch").SetInt(int64(epoch))
	c.leaderG.Set(1)
	// Status replies carry the governed-mode instruments at a root too.
	reg.Counter("budget_grants")
	reg.Counter("budget_floors")
	reg.Gauge("governed")
	takeover := reg.Gauge("last_takeover_micros")
	if opt.TakeoverMicros > 0 {
		takeover.SetInt(opt.TakeoverMicros)
		reg.Histogram("takeover_micros").Observe(float64(opt.TakeoverMicros))
	}
	return c, nil
}

// openJournal is the one rule by which a daemon or a warm standby gets its
// journal. An empty path journals to memory. A path loads what is there: a
// missing, truncated or corrupt file cold-starts, the journal being
// advisory, but a location the store cannot write refuses, naming the
// path, rather than run on without the persistence it was asked for.
func openJournal(path string) (*replica.Store, error) {
	st, err := replica.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return st, nil
}

// Boot starts a freshly built daemon — Boot(managerd.New(cfg)) — and stops
// it again if it cannot start, so a failed boot holds no journal open.
func Boot[S interface {
	Start() error
	Stop()
}](srv S, err error) (S, error) {
	if err != nil {
		return srv, err
	}
	if err = srv.Start(); err != nil {
		srv.Stop()
	}
	return srv, err
}

// Start binds the listeners, writes the lease and launches the accept,
// renew and control loops. On error nothing is left bound or running.
func (c *Chassis) Start() (err error) {
	defer func() {
		if err != nil {
			c.closeListeners()
			c.wg.Wait()
		}
	}()
	for _, ep := range c.opt.Listen {
		ln := ep.Listener
		if ln == nil {
			if ln, err = net.Listen("tcp", ep.Addr); err != nil {
				return fmt.Errorf("daemon: %w", err)
			}
		}
		c.lns = append(c.lns, ln)
	}
	if c.opt.MetricsAddr != "" {
		c.metricsLn, err = net.Listen("tcp", c.opt.MetricsAddr)
		if err != nil {
			return fmt.Errorf("daemon: metrics: %w", err)
		}
		c.metricsSrv = &http.Server{Handler: obs.NewMux(c.reg, c.trace, c.scrape)}
		c.run(func() { _ = c.metricsSrv.Serve(c.metricsLn) })
	}
	if c.opt.Lease != nil {
		// Write the lease synchronously so a standby started right after
		// us immediately sees a live leader.
		c.writeLease()
		c.Every(c.opt.Lease.Period(), c.renewLease)
	}
	if c.gov != nil {
		c.gov.Start()
		c.run(func() { c.gov.Run(c.leading) })
	}
	for _, ln := range c.lns {
		ln := ln
		c.run(func() { c.acceptLoop(ln) })
	}
	if c.hooks.Cycle != nil {
		// A deposed daemon's fleet has been shed and its epoch superseded:
		// it must neither command nor journal again.
		c.Every(c.opt.ControlEvery, c.hooks.Cycle)
	}
	return nil
}

// run runs fn on a goroutine Stop waits for.
func (c *Chassis) run(fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn()
	}()
}

// Every calls fn once per period, on a goroutine Stop waits for, until the
// daemon stops leading — is deposed or stopped. A ticker keeps one tick for a
// late receiver and drops the rest: ticks_dropped counts those.
func (c *Chassis) Every(period time.Duration, fn func()) {
	c.run(func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-c.leading.Done():
				return
			case <-tick.C:
				t0 := time.Now()
				fn()
				c.ticksDropped.Add(max(0, int64(time.Since(t0)/period)-1))
			}
		}
	})
}

// Stop ends leadership, closes the listeners, followers and sessions,
// waits for every goroutine the chassis started, then compacts the journal
// — so a clean restart replays no log — and closes it. Idempotent, and safe
// on a chassis that never started or failed to.
func (c *Chassis) Stop() {
	c.stopOnce.Do(func() {
		c.endLeading()
		c.closeListeners()
		c.pub.Close()
		c.hooks.Shed()
		c.wg.Wait()
		_ = c.opt.Journal.Compact()
		c.opt.Journal.Close()
	})
}

func (c *Chassis) closeListeners() {
	if c.metricsSrv != nil {
		c.metricsSrv.Close()
	}
	for _, ln := range c.lns {
		ln.Close()
	}
}

// Addr returns the first endpoint's bound address (useful with port 0).
func (c *Chassis) Addr() string {
	if len(c.lns) == 0 {
		return c.opt.Listen[0].Addr
	}
	return c.lns[0].Addr().String()
}

// MetricsAddr returns the bound observability HTTP address; empty when
// metrics serving is disabled.
func (c *Chassis) MetricsAddr() string {
	if c.metricsLn == nil {
		return c.opt.MetricsAddr
	}
	return c.metricsLn.Addr().String()
}

// Obs returns the daemon's instrument registry.
func (c *Chassis) Obs() *obs.Registry { return c.reg }

// CycleTrace returns the daemon's staged cycle recorder.
func (c *Chassis) CycleTrace() *obs.CycleRecorder { return c.trace }

// Journal returns the daemon's journal, which the chassis owns.
func (c *Chassis) Journal() *replica.Store { return c.opt.Journal }

// Epoch returns the leadership epoch (0 = HA off).
func (c *Chassis) Epoch() uint64 { return c.epoch }

// Deposed reports whether the daemon has fenced itself off after
// discovering a newer leadership epoch.
func (c *Chassis) Deposed() bool { return c.deposed.Load() }

// Govern puts the daemon under a parent grantor: from Start until it stops
// leading it reports upward and adopts the bands it is granted (see
// tier.Governor, which answers "which band now?"). Ending the session with
// leadership is what keeps a superseded leader from reporting to, or
// redialling, its parent and fighting its successor over the child slot.
// The chassis binds the grant, floor and decode-error hooks to the
// registry, sets cfg.Grace from grace, the parent silence tolerated in
// control periods (DefaultBudgetGrace when zero or less), and fills what
// cfg leaves zero: ReportEvery is the control period and Failsafe the
// daemon's own band, Initial. An invalid failsafe band is refused. Call
// before Start.
func (c *Chassis) Govern(cfg tier.GovernorConfig, grace int) (*tier.Governor, error) {
	if cfg.ReportEvery <= 0 {
		cfg.ReportEvery = c.opt.ControlEvery
	}
	if grace <= 0 {
		grace = DefaultBudgetGrace
	}
	cfg.Grace = time.Duration(grace) * c.opt.ControlEvery
	if cfg.Failsafe == (power.Thresholds{}) {
		cfg.Failsafe = cfg.Initial
	}
	if err := cfg.Failsafe.Validate(); err != nil {
		return nil, fmt.Errorf("failsafe budget: %w", err)
	}
	grants, floors := c.reg.Counter("budget_grants"), c.reg.Counter("budget_floors")
	governed, decodeErrs := c.reg.Gauge("governed"), c.reg.Counter("decode_errors")
	cfg.OnGrant = func() {
		grants.Inc()
		governed.Set(1)
	}
	cfg.OnFloor = func() {
		floors.Inc()
		governed.Set(0)
	}
	cfg.OnDecodeError = decodeErrs.Inc
	c.gov = tier.NewGovernor(cfg)
	return c.gov, nil
}

// runtimeGauges are the Go runtime's own numbers behind the footprint, and
// the gauges a scrape publishes them as (a histogram as its p99 in µs).
var runtimeGauges = [...]struct{ metric, gauge string }{
	{"/sched/goroutines:goroutines", "goroutines"},
	{"/memory/classes/heap/stacks:bytes", "stack_bytes"},
	{"/memory/classes/heap/objects:bytes", "heap_objects_bytes"},
	{"/sched/pauses/total/gc:seconds", "gc_pause_p99_micros"},
	{"/sched/latencies:seconds", "sched_latency_p99_micros"},
}

// p99 is the lower edge of the bucket holding h's 99th percentile; 0 if empty.
func p99(h *metrics.Float64Histogram) float64 {
	var total, seen uint64
	for _, n := range h.Counts {
		total += n
	}
	for i, n := range h.Counts {
		if seen += n; n > 0 && seen*100 >= total*99 {
			return h.Buckets[i]
		}
	}
	return 0
}

// scrape runs before every /metrics render: Refresh, and the runtime's
// numbers, which cost a status probe 3–4 µs it has no field to show for.
func (c *Chassis) scrape() {
	c.Refresh()
	c.rtMu.Lock()
	metrics.Read(c.rtSamples[:])
	for i, g := range c.rtGauges {
		if v := c.rtSamples[i].Value; v.Kind() == metrics.KindFloat64Histogram {
			g.Set(1e6 * p99(v.Float64Histogram()))
		} else if v.Kind() == metrics.KindUint64 {
			g.SetInt(int64(v.Uint64()))
		}
	}
	c.rtMu.Unlock()
}

// Refresh brings the gauges that are computed rather than bumped up to
// date: follower count and worst replication lag here, then the daemon's
// own. It runs before every /metrics render and every status reply.
func (c *Chassis) Refresh() {
	conns, lag := c.pub.Stats()
	c.replicaConnsG.SetInt(int64(conns))
	c.replicaLagG.SetInt(int64(lag))
	if c.hooks.Refresh != nil {
		c.hooks.Refresh()
	}
}

// Commit closes a cycle in the journal — one incremental entry when
// anything changed — and streams that entry to the followers.
func (c *Chassis) Commit(cycle int, thr power.Thresholds, learner *power.LearnerState) {
	if e, ok := c.opt.Journal.CommitCycle(cycle, float64(thr.PL), float64(thr.PH), learner); ok {
		c.journalAppends.Inc()
		c.pub.Publish(e)
	}
}

// Fenced checks the epoch a peer reports against ours. A higher one means
// the peer has met our successor: the hello is counted, the daemon deposes
// itself, and the caller must refuse the peer.
func (c *Chassis) Fenced(peer uint64) bool {
	if c.epoch == 0 || peer <= c.epoch {
		return false
	}
	c.fencedHellos.Inc()
	c.depose()
	return true
}

// depose self-fences a superseded leader: the leadership gauge drops,
// leading closes (lease renewal, the control ticker and the upward
// governor stop), the listeners close, and followers and sessions are shed
// so they redial the new leader. The object stays alive — Status and
// /metrics still serve — so an operator can autopsy a deposed daemon.
func (c *Chassis) depose() {
	if !c.deposed.CompareAndSwap(false, true) {
		return
	}
	c.leaderG.Set(0)
	c.endLeading()
	for _, ln := range c.lns {
		ln.Close()
	}
	c.pub.CloseSubs()
	c.hooks.Shed()
}

// acceptLoop accepts connections on one listener until it closes.
// Transient Accept failures (accept queue hiccups, temporary resource
// exhaustion, injected timeouts) are retried under capped exponential
// backoff rather than busy-spinning or killing the daemon.
func (c *Chassis) acceptLoop(ln net.Listener) {
	retry := wire.Backoff{Min: 5 * time.Millisecond, Max: 500 * time.Millisecond}
	for {
		raw, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			if !retry.Wait(c.leading) {
				return
			}
			continue
		}
		retry.Reset()
		c.wg.Add(1)
		go c.route(wire.NewConn(raw), c.accepts.Add(1))
	}
}

// route reads a connection's first frame and dispatches on it: a status
// probe gets one reply, a journal follower goes to the publisher, and
// anything else is the daemon's own session.
func (c *Chassis) route(conn *wire.Conn, accepted uint64) {
	defer c.wg.Done()
	first, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	switch first.Type {
	case wire.KindStatus:
		st := c.Status()
		env := wire.Envelope{Type: wire.KindStatus, Stats: &st}
		if c.hooks.Status != nil {
			c.hooks.Status(&env)
		}
		_ = conn.Send(env)
		conn.Close()
	case wire.KindJournalAck:
		// A standby's follower subscribing from the sequence number its
		// copy has reached. One that offers binary on that frame gets the
		// JSON hello naming it, so its acks follow the stream onto binary;
		// one that offers nothing gets no reply and stays on JSON.
		if c.Fenced(first.Epoch) || first.Advertises(wire.CodecBinary) &&
			conn.Confirm(wire.CodecBinary, &wire.Envelope{Type: wire.KindHello}) != nil {
			conn.Close()
			return
		}
		c.pub.Serve(conn, c.resumeAfter(&first))
	default:
		// Decoding the JSON hello grew this stack, and stacks shrink only at
		// a collection: the handshake, JSON too, runs here, on a stack about
		// to be thrown away, and the session's long life on a fresh one.
		if serve := c.hooks.Session(conn, &first, accepted); serve != nil {
			c.run(serve)
		} else {
			conn.Close()
		}
	}
}

// resumeAfter is the reset rule (DESIGN.md "Reset rule"): a copy at (Seq,
// Epoch) resumes after Seq only if we hold the entry at Seq under that
// epoch; any other is Reset — Serve resets a seq past our head — never
// extended in place. Seq 0 has nothing to check, and epoch 0 is HA off.
func (c *Chassis) resumeAfter(sub *wire.Envelope) uint64 {
	if sub.Seq == 0 || sub.Epoch == 0 {
		return sub.Seq
	}
	if at, ok := c.opt.Journal.EntriesSince(sub.Seq - 1); ok && len(at) > 0 && at[0].Epoch == sub.Epoch {
		return sub.Seq
	}
	return math.MaxUint64
}

// renewLease is one lease period's work: self-fence if a higher epoch has
// appeared in the file, else prove liveness.
func (c *Chassis) renewLease() {
	if st, err := c.opt.Lease.Read(); err == nil && st.Epoch > c.epoch {
		c.depose()
		return
	}
	c.writeLease()
}

// writeLease proves liveness at our epoch. A failed write is a missed
// renewal: enough of them and a standby takes over, which is the lease's
// whole point.
func (c *Chassis) writeLease() {
	_ = c.opt.Lease.Write(replica.LeaseState{
		Epoch: c.epoch, Holder: c.opt.LeaseHolder, RenewedAt: time.Now(),
	})
}
