// Package daemon is the chassis under the plane's two server daemons, the
// cabinet manager (internal/managerd) and the federation coordinator
// (internal/fedd). Everything the two have in common as network daemons
// lives here once: the instrument registry and cycle recorder, the
// journal's publisher, the leadership epoch with its lease and
// self-deposition, the listeners and their accept loops, first-frame
// routing, the control ticker and the stop/wait lifecycle.
//
// A daemon embeds *Chassis and supplies Hooks: how to serve one of its
// own sessions, what one control cycle does, what a status probe is
// answered with, and how to shed its sessions; one that has a parent of
// its own also hands over its governor (Govern). What it does with its
// children or agents — Algorithm 1, budget division — is none of the
// chassis's business.
package daemon

import (
	"context"
	"errors"
	"fmt"
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
	// CycleHistory sizes the cycle recorder; zero takes the obs default.
	CycleHistory int
	// WireCodec "json" pins followers to JSON and is what a codec probe is
	// told; anything else negotiates binary with peers that advertise it.
	WireCodec string
	// ControlEvery is the period of the ticker driving Hooks.Cycle.
	ControlEvery time.Duration

	// HA arrives with Journal resolved: the chassis stamps that store with
	// the leadership epoch and publishes its entries to followers. Opening
	// and closing it stays with the daemon.
	HA
	// WriteTimeout arms each frame written to a follower.
	WriteTimeout time.Duration
}

// HA is a daemon's high-availability configuration — its journal and its
// leased leadership — embedded in managerd.Config, fedd.Config and Options.
type HA struct {
	// JournalPath, when non-empty, persists the journal (snapshot + append
	// log) there, so a restart or a promoted standby resumes knowing what
	// it inherited. Ignored when Journal is set.
	JournalPath string
	// Journal, when non-nil, is an already-open store adopted in place of
	// opening JournalPath — a promoted standby hands its replicated copy
	// over this way.
	Journal *replica.Store
	// Epoch fixes the leadership epoch. Zero with a Lease claims the epoch
	// after whatever the lease file last recorded; the journal's epoch is a
	// floor either way. Zero without a Lease leaves fencing off.
	Epoch uint64
	// Lease, when non-nil, is the leadership lease: claimed at Start,
	// renewed every Lease.Every while the daemon runs, watched by
	// standbys. A higher epoch appearing in it deposes the daemon.
	Lease *replica.Lease
	// LeaseHolder names this instance in the lease file.
	LeaseHolder string
	// TakeoverMicros, when positive, is the leaderless time a promoted
	// standby absorbed before this daemon took over (surfaced as
	// last_takeover_micros and observed into the takeover_micros
	// histogram).
	TakeoverMicros int64
}

// Promoted is the HA of the daemon a standby boots on promotion p: the
// replicated store is the journal, at p's fenced-off epoch, holding lease
// as holder.
func (HA) Promoted(p replica.Promotion, lease *replica.Lease, holder string) HA {
	return HA{
		Journal:        p.Store,
		Epoch:          p.Epoch,
		Lease:          lease,
		LeaseHolder:    holder,
		TakeoverMicros: p.Leaderless.Microseconds(),
	}
}

// Hooks is what a daemon supplies. Session, Status and Shed are required.
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
	// Status builds the reply to a status probe.
	Status func() wire.Envelope
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

// New builds an unstarted chassis and resolves the leadership epoch.
func New(opt Options, hooks Hooks) *Chassis {
	reg := obs.NewRegistry()
	c := &Chassis{
		opt:   opt,
		hooks: hooks,
		reg:   reg,
		trace: obs.NewCycleRecorder(opt.CycleHistory, reg),
		pub:   replica.NewPublisher(opt.Journal, opt.WriteTimeout),

		journalAppends: reg.Counter("journal_appends"),
		fencedHellos:   reg.Counter("fenced_hellos"),
		ticksDropped:   reg.Counter("ticks_dropped"),
		leaderG:        reg.Gauge("leader"),
		replicaConnsG:  reg.Gauge("replica_conns"),
		replicaLagG:    reg.Gauge("replica_lag_entries"),
	}
	for i, rg := range runtimeGauges {
		c.rtSamples[i].Name, c.rtGauges[i] = rg.metric, reg.Gauge(rg.gauge)
	}
	c.leading, c.endLeading = context.WithCancel(context.Background())
	// Explicit configuration wins; otherwise a lease implies HA, so claim
	// the epoch after whatever the lease file last recorded. The journal's
	// epoch (a handed-over replica copy, say) is a floor.
	epoch := opt.Epoch
	if epoch == 0 && opt.Lease != nil {
		epoch = 1
		if st, err := opt.Lease.Read(); err == nil {
			epoch = st.Epoch + 1
		}
	}
	if je := opt.Journal.Epoch(); je > epoch {
		epoch = je
	}
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
	return c
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

// Start binds the listeners, claims the lease and launches the accept,
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
		// Claim the lease synchronously so a standby started right after
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

// Stop ends leadership, closes the listeners, followers and sessions, and
// waits for every goroutine the chassis started. Idempotent, and safe on a
// chassis that never started or failed to.
func (c *Chassis) Stop() {
	c.stopOnce.Do(func() {
		c.endLeading()
		c.closeListeners()
		c.pub.Close()
		c.hooks.Shed()
	})
	c.wg.Wait()
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
// The chassis binds the codec and the grant, floor and decode-error hooks
// to the registry; call before Start.
func (c *Chassis) Govern(cfg tier.GovernorConfig) *tier.Governor {
	grants, floors := c.reg.Counter("budget_grants"), c.reg.Counter("budget_floors")
	governed, decodeErrs := c.reg.Gauge("governed"), c.reg.Counter("decode_errors")
	cfg.WireCodec = c.opt.WireCodec
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
	return c.gov
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
// own. It runs before every /metrics render; the daemons call it before
// building a status reply.
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
		reply := c.hooks.Status()
		// A probe advertising codecs (powctl -codec) is told which codec
		// this daemon would negotiate with it — without switching the
		// reply itself off JSON, so any probe can read the answer.
		if len(first.Codecs) > 0 {
			reply.Codec = wire.Choose(&first, c.opt.WireCodec)
		}
		_ = conn.Send(reply)
		conn.Close()
	case wire.KindJournalAck:
		// A standby's follower subscribing from the sequence number its
		// copy has reached. It advertises codecs on the same frame; the
		// read side auto-detects per frame, so the handshake needs no reply.
		if c.Fenced(first.Epoch) {
			conn.Close()
			return
		}
		_ = conn.Confirm(wire.Choose(&first, c.opt.WireCodec), nil) // no reply, so nothing to fail
		c.pub.Serve(conn, first.Seq)
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
