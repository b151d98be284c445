package daemon_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/power"
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
	c, err := daemon.New(opt, s.hooks())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
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

// A status probe is answered with the daemon's envelope, filled from its
// registry, on JSON and naming no codec even when the probe advertises
// binary, and the connection is closed after the reply.
func TestStatusProbeGetsTheEnvelope(t *testing.T) {
	var s stub
	c := newChassis(t, &s, nil)
	c.Obs().Counter("cycles").Add(7) // the stub's cycles, registered as a daemon's are
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, c.Addr())
	if err := conn.Send(wire.Envelope{Type: wire.KindStatus, Codecs: []string{wire.CodecBinary}}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.KindStatus || reply.Stats == nil || reply.Stats.Cycles != 7 || reply.Codec != "" {
		t.Fatalf("reply is not the daemon's status envelope: %+v", reply)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("probe connection left open after the reply")
	}
}

// readTap records what the leader reads from each accepted connection.
type readTap struct {
	net.Listener
	mu  sync.Mutex
	got []byte
}

func (l *readTap) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: c, tap: l}, nil
}

func (l *readTap) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.got...)
}

type tappedConn struct {
	net.Conn
	tap *readTap
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.got = append(c.tap.got, p[:n]...)
	c.tap.mu.Unlock()
	return n, err
}

// A follower's subscribe offers binary, the chassis answers with the JSON
// hello, and from the first append on the follower's acks are binary
// frames the leader decodes: after the subscribe line, the leader reads a
// frame that opens with the binary magic, and the lag it reports drains.
func TestFollowerAcksGoBinary(t *testing.T) {
	nw := faultnet.New(1)
	defer nw.Close()
	ln := &readTap{Listener: nw.Listener()}
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) {
		o.Listen = []daemon.Endpoint{{Listener: ln}}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	store, err := replica.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f, err := replica.NewFollower(replica.FollowerConfig{
		Store: store,
		Dial:  func(ctx context.Context) (net.Conn, error) { return nw.Dial(ctx, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	gauge := func(name string) float64 {
		c.Refresh()
		v, _ := c.Obs().Value(name)
		return v
	}
	waitFor(t, "follower subscribed", func() bool { return gauge("replica_conns") == 1 })

	c.Commit(1, power.Thresholds{PL: 100, PH: 200}, nil)
	waitFor(t, "entry applied", func() bool { return store.Seq() == 1 })
	waitFor(t, "ack decoded by the leader", func() bool { return gauge("replica_lag_entries") == 0 })

	got := ln.bytes()
	nl := bytes.IndexByte(got, '\n')
	if nl < 0 || got[0] != '{' {
		t.Fatalf("subscribe is not a JSON line: %q", got)
	}
	if len(got) == nl+1 || got[nl+1] != 0xBC {
		t.Fatalf("ack after the subscribe is not a binary frame: %q", got[nl+1:])
	}
}

// A follower that has seen a newer leader deposes us: the subscription is
// refused and counted, leadership ends, the listener closes and the
// daemon's sessions are shed — once.
func TestFollowerWithHigherEpochDeposes(t *testing.T) {
	var s stub
	c := newChassis(t, &s, func(o *daemon.Options) { o.Journal.SetEpoch(3) })
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

// TestEpochClaim pins the one claim rule, in New: a leased daemon leads at
// the epoch after both its lease file's and its journal's — a missing or
// corrupt file counts as none — and after any claim file a claimant left
// without going on to write the lease; an unleased one leads at its
// journal's. Start stamps the journal and writes the lease at the claimed
// epoch. However many epochs are claimed, two claim files remain.
func TestEpochClaim(t *testing.T) {
	for _, tc := range []struct {
		lease   string // "none", "missing", "corrupt" or the file's epoch
		journal uint64
		want    uint64
		orphan  uint64 // when non-zero, a claim file left a lease period ago
	}{
		{"none", 0, 0, 0}, {"none", 3, 3, 0},
		{"missing", 0, 1, 0}, {"missing", 3, 4, 0},
		{"corrupt", 0, 1, 0}, {"corrupt", 3, 4, 0},
		{"2", 0, 3, 0}, {"2", 3, 4, 0},
		{"4", 0, 5, 0}, {"4", 3, 5, 0},
		{"4", 3, 6, 5},
	} {
		name := fmt.Sprintf("lease=%s/journal=%d", tc.lease, tc.journal)
		if tc.orphan != 0 {
			name = fmt.Sprintf("orphan=e%d/%s", tc.orphan, name)
		}
		t.Run(name, func(t *testing.T) {
			var lease *replica.Lease
			if tc.lease != "none" {
				lease = &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: time.Hour}
			}
			if tc.orphan != 0 {
				orphan := fmt.Sprintf("%s.e%d", lease.Path, tc.orphan)
				left := time.Now().Add(-2 * lease.Every)
				if err := errors.Join(os.WriteFile(orphan, []byte("crashed"), 0o644), os.Chtimes(orphan, left, left)); err != nil {
					t.Fatal(err)
				}
			}
			switch tc.lease {
			case "none", "missing":
			case "corrupt":
				if err := os.WriteFile(lease.Path, []byte("{\"epoch\": "), 0o644); err != nil {
					t.Fatal(err)
				}
			default:
				e, _ := strconv.ParseUint(tc.lease, 10, 64)
				if err := lease.Write(replica.LeaseState{Epoch: e, Holder: "old", RenewedAt: time.Now()}); err != nil {
					t.Fatal(err)
				}
			}
			var s stub
			var journal *replica.Store
			c := newChassis(t, &s, func(o *daemon.Options) {
				journal = o.Journal
				journal.SetEpoch(tc.journal)
				o.Lease, o.LeaseHolder = lease, "new"
			})
			if c.Epoch() != tc.want {
				t.Fatalf("claimed epoch %d, want %d", c.Epoch(), tc.want)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			if got := journal.Epoch(); got != tc.want {
				t.Errorf("journal stamped at epoch %d, want %d", got, tc.want)
			}
			if lease == nil {
				return
			}
			if st, err := lease.Read(); err != nil || st.Epoch != tc.want || st.Holder != "new" {
				t.Errorf("lease after Start: %+v err=%v, want epoch %d held by new", st, err, tc.want)
			}
		})
	}
	t.Run("bounded", func(t *testing.T) {
		dir := t.TempDir()
		lease := &replica.Lease{Path: filepath.Join(dir, "lease.json"), Every: time.Hour}
		for i := 0; i < 5; i++ {
			var s stub
			c := newChassis(t, &s, func(o *daemon.Options) { o.Lease, o.LeaseHolder = lease, "new" })
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			c.Stop()
		}
		claims, err := filepath.Glob(lease.Path + ".e*")
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{lease.Path + ".e4", lease.Path + ".e5"}; !slices.Equal(claims, want) {
			t.Errorf("claim files after five claims: %v, want %v", claims, want)
		}
	})
}

// claimOver builds, without starting it, a chassis led by holder over a
// memory journal at epoch 1 — a standby's copy that last saw the lease at
// epoch 1 — returning it (nil if refused), its journal and New's error.
func claimOver(lease *replica.Lease, holder string) (*daemon.Chassis, *replica.Store, error) {
	journal, err := replica.Open("")
	if err != nil {
		return nil, nil, err
	}
	journal.SetEpoch(1)
	var s stub
	c, err := daemon.New(daemon.Options{
		Listen:       []daemon.Endpoint{{Addr: "127.0.0.1:0"}},
		ControlEvery: time.Hour,
		HA:           daemon.HA{Journal: journal, Lease: lease, LeaseHolder: holder},
		WriteTimeout: time.Second,
	}, s.hooks())
	return c, journal, err
}

// Two standbys that read one stale lease at epoch 1 before either starts
// must not both lead epoch 2: the claim is one exclusive create, so the
// second New is refused, naming the epoch and the winner, with its journal
// and the lease as they were. Eight claimants released at once from one
// barrier have exactly one winner.
func TestTwoClaimantsOneEpoch(t *testing.T) {
	const leaseEvery = 100 * time.Millisecond
	stale := replica.LeaseState{Epoch: 1, Holder: "dead", RenewedAt: time.Now().Add(-time.Hour)}
	t.Run("sequential", func(t *testing.T) {
		lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: leaseEvery}
		if err := lease.Write(stale); err != nil {
			t.Fatal(err)
		}
		a, _, err := claimOver(lease, "a")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Stop)
		b, journal, err := claimOver(lease, "b")
		if err == nil {
			t.Cleanup(b.Stop)
			if err := errors.Join(a.Start(), b.Start()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(3 * leaseEvery)
			t.Fatalf("two acting leaders: a at epoch %d (deposed %v), b at epoch %d (deposed %v)",
				a.Epoch(), a.Deposed(), b.Epoch(), b.Deposed())
		}
		if !errors.Is(err, replica.ErrClaimed) || !strings.Contains(err.Error(), "epoch 2 already claimed by a") {
			t.Fatalf("second claim: %v, want epoch 2 already claimed by a (replica.ErrClaimed)", err)
		}
		if a.Epoch() != 2 || journal.Epoch() != 1 {
			t.Errorf("winner at epoch %d, refused journal at %d; want 2 and 1", a.Epoch(), journal.Epoch())
		}
		if st, err := lease.Read(); err != nil || st.Epoch != 1 || st.Holder != "dead" {
			t.Errorf("refused claimant touched the lease: %+v err=%v", st, err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * leaseEvery)
		if st, err := lease.Read(); err != nil || st.Epoch != 2 || st.Holder != "a" || a.Deposed() {
			t.Errorf("lease %+v err=%v, winner deposed %v; want a leading epoch 2", st, err, a.Deposed())
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: leaseEvery}
		if err := lease.Write(stale); err != nil {
			t.Fatal(err)
		}
		const claimants = 8
		var (
			wg      sync.WaitGroup
			barrier = make(chan struct{})
			mu      sync.Mutex
			won     []*daemon.Chassis
		)
		for i := 0; i < claimants; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-barrier
				c, _, err := claimOver(lease, fmt.Sprint("claimant-", i))
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					won = append(won, c)
					t.Cleanup(c.Stop)
				} else if !errors.Is(err, replica.ErrClaimed) {
					t.Errorf("claimant %d: %v, want replica.ErrClaimed", i, err)
				}
			}()
		}
		close(barrier)
		wg.Wait()
		if len(won) != 1 {
			t.Fatalf("%d of %d claimants won, want exactly one", len(won), claimants)
		}
		if won[0].Epoch() != 2 {
			t.Errorf("winner at epoch %d, want 2", won[0].Epoch())
		}
	})
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
