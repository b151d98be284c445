package daemon_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/replica"
	"repro/internal/wire"
)

// stub is the smallest daemon a chassis can carry: it counts what the
// chassis asks of it and keeps its sessions open until shed.
type stub struct {
	sessions atomic.Int64
	cycles   atomic.Int64
	sheds    atomic.Int64
	refuse   atomic.Bool   // refuse every session at the handshake
	onCycle  func(n int64) // when non-nil, runs inside the nth cycle

	mu    sync.Mutex
	conns []*wire.Conn
}

func (s *stub) hooks() daemon.Hooks {
	return daemon.Hooks{
		Session: func(conn *wire.Conn, first *wire.Envelope, accepted uint64) func() {
			if s.refuse.Load() {
				return nil
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.sessions.Add(1)
			return func() {
				for {
					if _, err := conn.Recv(); err != nil {
						conn.Close()
						return
					}
				}
			}
		},
		Cycle: func() {
			if n := s.cycles.Add(1); s.onCycle != nil {
				s.onCycle(n)
			}
		},
		Status: func() wire.Envelope {
			return wire.Envelope{Type: wire.KindStatus, Stats: &wire.StatusReply{Cycles: int(s.cycles.Load())}}
		},
		Shed: func() {
			s.sheds.Add(1)
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, c := range s.conns {
				c.Close()
			}
		},
	}
}

// newChassis builds a chassis over a memory journal with the stub's hooks;
// fill edits the options first. The chassis is stopped with the test.
func newChassis(t *testing.T, s *stub, fill func(*daemon.Options)) *daemon.Chassis {
	t.Helper()
	journal, err := replica.Open("")
	if err != nil {
		t.Fatal(err)
	}
	opt := daemon.Options{
		Listen:       []daemon.Endpoint{{Addr: "127.0.0.1:0"}},
		ControlEvery: time.Hour,
		HA:           daemon.HA{Journal: journal},
		WriteTimeout: time.Second,
	}
	if fill != nil {
		fill(&opt)
	}
	c := daemon.New(opt, s.hooks())
	t.Cleanup(func() {
		c.Stop()
		journal.Close()
	})
	return c
}

func dial(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(30 * time.Second)) // a test's read fails rather than hangs
	conn := wire.NewConn(raw)
	t.Cleanup(func() { conn.Close() })
	return conn
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	harness.WaitUntil(t, 5*time.Second, cond, "%s", what)
}

// flakyListener fails its first few Accepts with a transient error.
type flakyListener struct {
	net.Listener
	failures atomic.Int64 // transient errors still to inject
	accepts  atomic.Int64 // Accept calls so far
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	if l.failures.Add(-1) >= 0 {
		return nil, errors.New("accept: resource temporarily unavailable")
	}
	return l.Listener.Accept()
}

// Transient Accept errors are retried under backoff; a closed listener
// ends the loop.
func TestAcceptRetriesTransientErrorsAndEndsOnClose(t *testing.T) {
	nw := faultnet.New(1)
	defer nw.Close()
	ln := &flakyListener{Listener: nw.Listener()}
	ln.failures.Store(3)
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) {
		o.Listen = []daemon.Endpoint{{Listener: ln}}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	raw, err := nw.Dial(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(wire.Envelope{Type: wire.KindHello, Node: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session served after the injected accept errors", func() bool { return s.sessions.Load() == 1 })
	// Three failures, the connection, and the call now blocked.
	waitFor(t, "accept loop back in Accept", func() bool { return ln.accepts.Load() == 5 })

	ln.Close()
	time.Sleep(30 * time.Millisecond) // six minimum backoffs
	if got := ln.accepts.Load(); got != 5 {
		t.Fatalf("accept loop retried a closed listener (%d Accept calls, want 5)", got)
	}
}

// A status probe is answered with the daemon's envelope, plus the codec the
// daemon would negotiate when the probe advertises any.
func TestStatusProbeCodecAnswer(t *testing.T) {
	both := []string{wire.CodecBinary, wire.CodecJSON}
	for _, tc := range []struct {
		pin       string
		advertise []string
		want      string
	}{
		{"", both, wire.CodecBinary},
		{wire.CodecBinary, both, wire.CodecBinary},
		{wire.CodecJSON, both, wire.CodecJSON},
		{"", []string{wire.CodecJSON}, wire.CodecJSON},
		{"", nil, ""},
	} {
		t.Run(fmt.Sprintf("pin=%q,advertise=%v", tc.pin, tc.advertise), func(t *testing.T) {
			var s stub
			s.cycles.Store(7)
			c := newChassis(t, &s, func(o *daemon.Options) { o.WireCodec = tc.pin })
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			conn := dial(t, c.Addr())
			if err := conn.Send(wire.Envelope{Type: wire.KindStatus, Codecs: tc.advertise}); err != nil {
				t.Fatal(err)
			}
			reply, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != wire.KindStatus || reply.Stats == nil || reply.Stats.Cycles != 7 {
				t.Fatalf("reply is not the daemon's status envelope: %+v", reply)
			}
			if reply.Codec != tc.want {
				t.Fatalf("codec answer %q, want %q", reply.Codec, tc.want)
			}
			if _, err := conn.Recv(); err == nil {
				t.Fatal("probe connection left open after the reply")
			}
		})
	}
}

// A follower that has seen a newer leader deposes us: the subscription is
// refused and counted, leadership ends, the listener closes and the
// daemon's sessions are shed — once.
func TestFollowerWithHigherEpochDeposes(t *testing.T) {
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) { o.Epoch = 3 })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	agent := dial(t, c.Addr())
	if err := agent.Send(wire.Envelope{Type: wire.KindHello, Node: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session", func() bool { return s.sessions.Load() == 1 })

	// A follower at our own epoch is served, and shows in the gauges.
	peer := dial(t, c.Addr())
	if err := peer.Send(wire.Envelope{Type: wire.KindJournalAck, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower registered", func() bool {
		c.Refresh()
		v, _ := c.Obs().Value("replica_conns")
		return v == 1
	})
	if c.Deposed() || s.sheds.Load() != 0 {
		t.Fatal("deposed by a follower that is not ahead of us")
	}

	newer := dial(t, c.Addr())
	if err := newer.Send(wire.Envelope{Type: wire.KindJournalAck, Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	if env, err := newer.Recv(); err == nil {
		t.Fatalf("fenced follower got a frame: %+v", env)
	}
	waitFor(t, "deposition", c.Deposed)
	waitFor(t, "sessions and followers shed", func() bool {
		_, aerr := agent.Recv()
		_, perr := peer.Recv()
		return aerr != nil && perr != nil
	})
	if v, _ := c.Obs().Value("fenced_hellos"); v != 1 {
		t.Errorf("fenced_hellos = %v, want 1", v)
	}
	if v, _ := c.Obs().Value("leader"); v != 0 {
		t.Errorf("leader gauge = %v on a deposed daemon", v)
	}
	if got := s.sheds.Load(); got != 1 {
		t.Errorf("shed called %d times by one deposition, want 1", got)
	}
	if c.Epoch() != 3 {
		t.Errorf("deposed daemon forgot its epoch: %d", c.Epoch())
	}
	if raw, err := net.DialTimeout("tcp", c.Addr(), time.Second); err == nil {
		raw.Close()
		t.Error("listener still accepting on a deposed daemon")
	}
	// A second newer peer cannot depose twice.
	if !c.Fenced(10) {
		t.Error("Fenced(10) = false at epoch 3")
	}
	if got := s.sheds.Load(); got != 1 {
		t.Errorf("shed called %d times after a second fence, want 1", got)
	}
}

// A higher epoch in the lease file makes the daemon depose itself: it stops
// renewing and stops cycling, and keeps serving /metrics for the autopsy.
func TestLeaseEpochBumpSelfDeposes(t *testing.T) {
	const leaseEvery = 100 * time.Millisecond
	lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: leaseEvery}
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) {
		o.Lease, o.LeaseHolder = lease, "primary"
		o.ControlEvery = 5 * time.Millisecond
		o.MetricsAddr = "127.0.0.1:0"
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := lease.Read(); err != nil || st.Epoch != 1 || st.Holder != "primary" {
		t.Fatalf("lease not claimed at Start: %+v err=%v", st, err)
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1 (first claim of an empty lease)", c.Epoch())
	}
	waitFor(t, "ticker cycles", func() bool { return s.cycles.Load() >= 3 })

	usurper := replica.LeaseState{Epoch: 5, Holder: "standby", RenewedAt: time.Now()}
	if err := lease.Write(usurper); err != nil {
		t.Fatal(err)
	}
	bumped := time.Now()
	waitFor(t, "self-deposition", c.Deposed)
	if took := time.Since(bumped); took > 2*leaseEvery {
		t.Errorf("deposed %v after the bump, want within two lease periods (%v)", took, 2*leaseEvery)
	}
	waitFor(t, "sessions shed", func() bool { return s.sheds.Load() == 1 })

	// A cycle already running when Leading closed may finish; after that
	// the count is frozen, and the lease is the usurper's.
	time.Sleep(10 * time.Millisecond)
	frozen := s.cycles.Load()
	time.Sleep(2 * leaseEvery)
	if got := s.cycles.Load(); got != frozen {
		t.Errorf("deposed daemon still cycling: %d → %d", frozen, got)
	}
	if got := s.sheds.Load(); got != 1 {
		t.Errorf("shed called %d times by one deposition, want 1", got)
	}
	if st, err := lease.Read(); err != nil || st.Epoch != 5 || st.Holder != "standby" {
		t.Errorf("deposed daemon rewrote the lease: %+v err=%v", st, err)
	}

	resp, err := http.Get("http://" + c.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("deposed daemon's /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"leader 0\n", "epoch 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics of a deposed daemon lacks %q", want)
		}
	}
}

// The profiler rides the metrics address: a chassis started with one serves
// /debug/pprof/ beside /metrics, and one started without listens on nothing.
func TestPprofRidesTheMetricsAddress(t *testing.T) {
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) { o.MetricsAddr = "127.0.0.1:0" })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get("http://" + c.MetricsAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes, want 200 with a body", path, resp.StatusCode, len(body))
		}
	}

	var q stub
	quiet := newChassis(t, &q, nil)
	if err := quiet.Start(); err != nil {
		t.Fatal(err)
	}
	if addr := quiet.MetricsAddr(); addr != "" {
		t.Errorf("a chassis without a metrics address reports one: %q", addr)
	}
	// Its one listener is the wire endpoint, which does not speak HTTP.
	if resp, err := (&http.Client{Timeout: 2 * time.Second}).Get("http://" + quiet.Addr() + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		t.Errorf("the wire endpoint answered an HTTP GET with status %d", resp.StatusCode)
	}
}

// Stop before Start, Stop twice, and a Start that fails half-way leave no
// listener bound and no goroutine behind.
func TestLifecycleLeavesNothingBehind(t *testing.T) {
	leak := harness.StartLeakCheck()

	var idle stub
	never := newChassis(t, &idle, nil)
	never.Stop()
	never.Stop()
	if got := idle.sheds.Load(); got != 1 {
		t.Errorf("Stop before Start shed %d times, want 1", got)
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	nw := faultnet.New(1)
	defer nw.Close()
	handed := nw.Listener()
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) {
		o.Listen = []daemon.Endpoint{{Addr: "127.0.0.1:0"}, {Listener: handed}, {Addr: taken.Addr().String()}}
		o.MetricsAddr = "127.0.0.1:0"
		o.Lease = &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json")}
	})
	err = c.Start()
	if err == nil || !strings.Contains(err.Error(), "listen tcp "+taken.Addr().String()) {
		t.Fatalf("Start over a taken port: %v", err)
	}
	// The endpoint bound before the failure is free again, and the
	// handed-in listener adopted before it was closed with it.
	ln, err := net.Listen("tcp", c.Addr())
	if err != nil {
		t.Errorf("first endpoint still bound after the failed Start: %v", err)
	} else {
		ln.Close()
	}
	if _, err := handed.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("handed-in listener left open after the failed Start: %v", err)
	}
	c.Stop()
	c.Stop()

	// A started daemon with every loop running goes away as completely.
	var live stub
	full := newChassis(t, &live, func(o *daemon.Options) {
		o.MetricsAddr = "127.0.0.1:0"
		o.ControlEvery = time.Millisecond
		o.Lease = &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: time.Millisecond}
	})
	if err := full.Start(); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, full.Addr())
	if err := conn.Send(wire.Envelope{Type: wire.KindHello}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session", func() bool { return live.sessions.Load() == 1 })
	full.Stop()
	full.Stop()
	if _, err := conn.Recv(); err == nil {
		t.Error("session survived Stop")
	}
	leak.Check(t, 5*time.Second)
}

// A session the daemon refuses at the handshake is the chassis's to close,
// and costs no goroutine: the handshake ran on the one that routed it.
func TestRefusedSessionIsClosedAndLeavesNothing(t *testing.T) {
	var s stub
	s.refuse.Store(true)
	c := newChassis(t, &s, nil)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	leak := harness.StartLeakCheck()
	for i := 0; i < 8; i++ {
		conn := dial(t, c.Addr())
		if err := conn.Send(wire.Envelope{Type: wire.KindHello, Node: i}); err != nil {
			t.Fatal(err)
		}
		if env, err := conn.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("refused session %d read %+v, %v; want the connection closed", i, env, err)
		}
	}
	leak.Check(t, 5*time.Second)
	if got := s.sessions.Load(); got != 0 {
		t.Errorf("%d sessions served by a daemon that refuses them all", got)
	}
}

// A call that overruns its period swallows ticks; the chassis counts them.
func TestDroppedTicksAreCounted(t *testing.T) {
	const period = 2 * time.Millisecond
	dropped := func(s *stub) float64 {
		c := newChassis(t, s, func(o *daemon.Options) { o.ControlEvery = period })
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "five cycles", func() bool { return s.cycles.Load() >= 5 })
		v, _ := c.Obs().Value("ticks_dropped")
		return v
	}
	if got := dropped(&stub{}); got != 0 {
		t.Errorf("ticks_dropped = %v under a hook that returns at once, want 0", got)
	}
	slow := &stub{onCycle: func(n int64) {
		if n == 1 {
			time.Sleep(11 * time.Millisecond)
		}
	}}
	if got := dropped(slow); got < 4 {
		t.Errorf("ticks_dropped = %v after one 11 ms call on a %v period, want >= 4", got, period)
	}
}

// The runtime's own numbers — what the footprint is made of — are on a
// scrape, read when it is made.
func TestScrapeCarriesTheRuntime(t *testing.T) {
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) { o.MetricsAddr = "127.0.0.1:0" })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + c.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"goroutines", "stack_bytes", "heap_objects_bytes", "gc_pause_p99_micros", "sched_latency_p99_micros"} {
		if !strings.Contains("\n"+string(body), "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	for _, name := range []string{"goroutines", "stack_bytes", "heap_objects_bytes"} {
		if v, ok := c.Obs().Value(name); !ok || v < 1 {
			t.Errorf("%s = %v after a scrape, want >= 1", name, v)
		}
	}
}

// fakeDaemon is what Boot and the promotion helper boot in these tests.
type fakeDaemon struct {
	startErr error
	started  bool
	stopped  atomic.Bool
}

func (f *fakeDaemon) Start() error { f.started = true; return f.startErr }
func (f *fakeDaemon) Stop()        { f.stopped.Store(true) }

func TestBootStartsOrStops(t *testing.T) {
	built := errors.New("bad config")
	if _, err := daemon.Boot((*fakeDaemon)(nil), built); err != built {
		t.Fatalf("constructor error not passed through: %v", err)
	}
	ok := &fakeDaemon{}
	if srv, err := daemon.Boot(ok, nil); err != nil || srv != ok || !ok.started || ok.stopped.Load() {
		t.Fatalf("Boot of a healthy daemon: %v (started %v, stopped %v)", err, ok.started, ok.stopped.Load())
	}
	bound := &fakeDaemon{startErr: errors.New("port taken")}
	if _, err := daemon.Boot(bound, nil); err != bound.startErr || !bound.stopped.Load() {
		t.Fatalf("Boot of a daemon that cannot start: %v (stopped %v)", err, bound.stopped.Load())
	}
}

func standbyConfig(t *testing.T) replica.StandbyConfig {
	t.Helper()
	store, err := replica.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return replica.StandbyConfig{
		Follower: replica.FollowerConfig{
			Store:   store,
			Backoff: time.Millisecond,
			Dial: func(context.Context) (net.Conn, error) {
				return nil, errors.New("no leader to follow")
			},
		},
		Lease:  &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: 5 * time.Millisecond},
		Holder: "standby",
	}
}

func TestStandbyBootsOnceAndHandsOver(t *testing.T) {
	var boots atomic.Int64
	srv := &fakeDaemon{}
	sb, err := daemon.StartStandby(standbyConfig(t), func(p replica.Promotion) (*fakeDaemon, error) {
		boots.Add(1)
		if p.Epoch != 1 || p.Store == nil {
			t.Errorf("promotion %+v, want epoch 1 over the replicated store", p)
		}
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Await(20 * time.Millisecond); err == nil {
		t.Fatal("Await returned a daemon before any promotion")
	}
	sb.Promote()
	sb.Promote()
	got, err := sb.Await(5 * time.Second)
	if err != nil || got != srv {
		t.Fatalf("Await = %v, %v; want the booted daemon", got, err)
	}
	if left, promoted := sb.Stop(); promoted || left != nil {
		t.Errorf("Stop returned %v after Await had collected the daemon", left)
	}
	if srv.stopped.Load() {
		t.Error("Stop stopped a daemon the caller had collected")
	}
	if n := boots.Load(); n != 1 {
		t.Errorf("boot ran %d times, want 1", n)
	}
}

func TestStandbyReportsBootErrorThroughAwait(t *testing.T) {
	boom := errors.New("port taken")
	sb, err := daemon.StartStandby(standbyConfig(t), func(replica.Promotion) (*fakeDaemon, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.Promote()
	if _, err := sb.Await(5 * time.Second); !errors.Is(err, boom) {
		t.Fatalf("Await error %v, want boot's", err)
	}
	if _, promoted := sb.Stop(); promoted {
		t.Error("Stop reports a promoted daemon after boot failed")
	}
}

func TestStandbyStopStopsUncollectedDaemon(t *testing.T) {
	srv := &fakeDaemon{}
	sb, err := daemon.StartStandby(standbyConfig(t), func(replica.Promotion) (*fakeDaemon, error) {
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.Promote()
	select {
	case <-sb.Standby.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("never promoted")
	}
	got, promoted := sb.Stop()
	if !promoted || got != srv || !srv.stopped.Load() {
		t.Errorf("Stop = %v, %v (stopped %v); want the promoted daemon, stopped", got, promoted, srv.stopped.Load())
	}
}

func TestStartStandbyRejectsBadConfig(t *testing.T) {
	cfg := standbyConfig(t)
	cfg.Lease = nil
	if _, err := daemon.StartStandby(cfg, func(replica.Promotion) (*fakeDaemon, error) { return nil, nil }); err == nil {
		t.Fatal("a standby without a lease was accepted")
	}
}
