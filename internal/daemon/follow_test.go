package daemon_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/power"
	"repro/internal/replica"
)

// freeAddr reserves a loopback port for a daemon that binds it later, so
// the rest of its HA group can be told its address up front.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// commitLevel closes one cycle on c's journal that changes one node's level.
func commitLevel(c *daemon.Chassis, node, level int) {
	c.Journal().SetLevel(node, level)
	c.Commit(int(c.Journal().Seq())+1, power.Thresholds{}, nil)
}

// refused reports whether nothing accepts a TCP dial at addr.
func refused(addr string) bool {
	raw, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		raw.Close()
	}
	return err != nil
}

// A standby follows whichever member of its group leads, over TCP: two
// standbys of a leased primary P are each given the group's other
// addresses. A (miss budget 2) takes over when P stops and leads epoch 2;
// B (miss budget 1000) stays a standby and its copy follows A's commits,
// so when A stops in turn B promotes at epoch 3 holding A's entries, not
// P's. Only the leader listens: neither standby's address accepts a dial
// before it promotes.
func TestStandbyFollowsItsSuccessor(t *testing.T) {
	const every = 50 * time.Millisecond
	lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: every}
	var ps stub
	p := newChassis(t, &ps, func(o *daemon.Options) { o.Lease, o.LeaseHolder = lease, "primary" })
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	aAddr, bAddr := freeAddr(t), freeAddr(t)
	standby := func(self string, others []string, missBudget int, holder string) *daemon.WarmStandby[*daemon.Chassis] {
		sb, err := daemon.StartStandby(daemon.StandbyConfig{
			Follower:   replica.FollowerConfig{Addrs: others, Backoff: every},
			Lease:      lease,
			MissBudget: missBudget,
			Holder:     holder,
		}, func(ha daemon.HA) (*daemon.Chassis, error) {
			var s stub
			return daemon.Boot(daemon.New(daemon.Options{
				Listen:       []daemon.Endpoint{{Addr: self}},
				ControlEvery: time.Hour,
				HA:           ha,
				WriteTimeout: time.Second,
			}, s.hooks()))
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sb.Stop() })
		return sb
	}
	a := standby(aAddr, []string{p.Addr(), bAddr}, 2, "a")
	b := standby(bAddr, []string{p.Addr(), aAddr}, 1000, "b")

	for i := 1; i <= 5; i++ {
		commitLevel(p, i, i)
	}
	waitFor(t, "both copies at P's head", func() bool {
		return a.Store().Seq() == 5 && b.Store().Seq() == 5
	})
	if !refused(aAddr) || !refused(bAddr) {
		t.Fatal("a standby listens before it has promoted")
	}

	p.Stop()
	ca := awaitChassis(t, a)
	promoted := time.Now()
	if ca.Epoch() != 2 || ca.Addr() != aAddr {
		t.Fatalf("A leads epoch %d at %s, want epoch 2 at %s", ca.Epoch(), ca.Addr(), aAddr)
	}
	for i := 1; i <= 15; i++ {
		commitLevel(ca, 100+i, i)
	}
	head := ca.Journal().Seq()
	// B redials every lease period and reaches A within two dials of its
	// promotion; the bound leaves room for a loaded race-detector run.
	const within = 25
	for deadline := promoted.Add(within * every); b.Store().Seq() != head; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("B's copy at seq %d, A's head %d, %d lease periods after A promoted", b.Store().Seq(), head, within)
		}
	}
	t.Logf("B reached A's head (seq %d) %v after A promoted", head, time.Since(promoted).Round(time.Millisecond))
	want := ca.Journal().State().Levels

	ca.Stop()
	b.Promote()
	cb := awaitChassis(t, b)
	if cb.Epoch() != 3 {
		t.Errorf("B promoted at epoch %d, want 3", cb.Epoch())
	}
	if got := cb.Journal().State(); got.LastSeq != head || !slices.Equal(got.Levels, want) {
		t.Errorf("B leads with seq %d levels %v, want A's seq %d levels %v", got.LastSeq, got.Levels, head, want)
	}
}

// A former primary restarted without being a standby must not unseat the
// standby that succeeded it: P (journal on disk) leads epoch 1 and commits
// three entries, its standby S promotes at epoch 2 when P stops and
// commits five more, and P restarted cold under its own holder name, while
// S's lease is live, is refused by New, naming S, with S still leading
// epoch 2 and holding all eight entries. Without the refusal P claims
// epoch 3, S is deposed at its next renewal and P leads with its own three.
func TestRestartedPrimaryDoesNotUnseatItsSuccessor(t *testing.T) {
	const every = 50 * time.Millisecond
	dir := t.TempDir()
	lease := &replica.Lease{Path: filepath.Join(dir, "lease.json"), Every: every}
	primary := func() (*daemon.Chassis, error) {
		var s stub
		return daemon.Boot(daemon.New(daemon.Options{
			Listen:       []daemon.Endpoint{{Addr: "127.0.0.1:0"}},
			ControlEvery: time.Hour,
			HA:           daemon.HA{JournalPath: filepath.Join(dir, "p.journal"), Lease: lease, LeaseHolder: "primary"},
			WriteTimeout: time.Second,
		}, s.hooks()))
	}
	p, err := primary()
	if err != nil {
		t.Fatal(err)
	}
	sAddr := freeAddr(t)
	sb, err := daemon.StartStandby(daemon.StandbyConfig{
		Follower:   replica.FollowerConfig{Addrs: []string{p.Addr()}, Backoff: every},
		Lease:      lease,
		MissBudget: 2,
		Holder:     "standby",
	}, func(ha daemon.HA) (*daemon.Chassis, error) {
		var s stub
		return daemon.Boot(daemon.New(daemon.Options{
			Listen:       []daemon.Endpoint{{Addr: sAddr}},
			ControlEvery: time.Hour,
			HA:           ha,
			WriteTimeout: time.Second,
		}, s.hooks()))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Stop() })
	for i := 1; i <= 3; i++ {
		commitLevel(p, i, i)
	}
	waitFor(t, "the standby's copy at P's head", func() bool { return sb.Store().Seq() == 3 })

	p.Stop()
	s := awaitChassis(t, sb)
	if s.Epoch() != 2 {
		t.Fatalf("S leads epoch %d, want 2", s.Epoch())
	}
	for i := 1; i <= 5; i++ {
		commitLevel(s, 100+i, i)
	}
	want := s.Journal().State()

	restarted, err := primary()
	if err == nil {
		t.Cleanup(restarted.Stop)
		time.Sleep(3 * every)
		got := restarted.Journal().State()
		t.Fatalf("restarted P leads epoch %d with seq %d, levels %v; S deposed %v, its seq %d, levels %v lost",
			restarted.Epoch(), got.LastSeq, got.Levels, s.Deposed(), want.LastSeq, want.Levels)
	}
	if !errors.Is(err, replica.ErrClaimed) || !strings.Contains(err.Error(), "epoch 2 already claimed by standby") {
		t.Fatalf("restarted P: %v, want epoch 2 already claimed by standby (replica.ErrClaimed)", err)
	}
	time.Sleep(3 * every)
	if s.Deposed() {
		t.Fatal("S was deposed after the refused restart")
	}
	if st, err := lease.Read(); err != nil || st.Epoch != 2 || st.Holder != "standby" {
		t.Errorf("lease %+v err=%v, want S leading epoch 2", st, err)
	}
	if got := s.Journal().State(); got.LastSeq != 8 || !slices.Equal(got.Levels, want.Levels) {
		t.Errorf("S holds seq %d levels %v, want seq 8 levels %v", got.LastSeq, got.Levels, want.Levels)
	}
}

// A copy that followed a former leader past what its successor replicated
// holds an entry — seq 3 at epoch 1 — that the successor holds at epoch 2.
// Subscribing there, it is caught up by one Reset to the successor's state,
// not extended in place with the successor's entry 4 on top of its own 3.
// Resuming against the leader it now follows, it gets exactly the next
// entry and no second Reset.
func TestDivergentCopyIsReset(t *testing.T) {
	var olds, succs stub
	old := newChassis(t, &olds, func(o *daemon.Options) { o.Journal.SetEpoch(1) })
	for node := 1; node <= 3; node++ {
		commitLevel(old, node, node)
	}
	history, ok := old.Journal().EntriesSince(0)
	if !ok || len(history) != 3 {
		t.Fatalf("former leader's ring: %+v ok=%v", history, ok)
	}
	succ := newChassis(t, &succs, func(o *daemon.Options) {
		for _, e := range history[:2] {
			if err := o.Journal.ApplyRemote(e); err != nil {
				t.Fatal(err)
			}
		}
		o.Journal.SetEpoch(2)
	})
	commitLevel(succ, 9, 7)
	commitLevel(succ, 10, 8)
	for _, c := range []*daemon.Chassis{old, succ} {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}

	// The test's dial follows target and keeps the live connection, so the
	// test can move the copy to the successor and later cut its session.
	var (
		target atomic.Pointer[string]
		mu     sync.Mutex
		live   net.Conn
	)
	oldAddr, succAddr := old.Addr(), succ.Addr()
	target.Store(&oldAddr)
	store, err := replica.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f, err := replica.NewFollower(replica.FollowerConfig{
		Store:   store,
		Backoff: time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			raw, err := d.DialContext(ctx, "tcp", *target.Load())
			if err == nil {
				mu.Lock()
				live = raw
				mu.Unlock()
			}
			return raw, err
		},
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
	counter := func(name string) float64 {
		v, _ := f.Obs().Value(name)
		return v
	}
	waitFor(t, "copy of the former leader", func() bool { return store.Seq() == 3 && store.Epoch() == 1 })

	target.Store(&succAddr)
	old.Stop()
	waitFor(t, "copy at the successor's head", func() bool { return store.Seq() == succ.Journal().Seq() })
	if got, want := store.State().Levels, succ.Journal().State().Levels; !slices.Equal(got, want) {
		t.Fatalf("copy holds levels %v, the successor %v: extended in place", got, want)
	}
	if n := counter("replica_resets"); n != 1 {
		t.Fatalf("%v resets caught the copy up, want 1", n)
	}

	redials := counter("replica_redials")
	mu.Lock()
	live.Close()
	mu.Unlock()
	waitFor(t, "copy resubscribed", func() bool {
		return counter("replica_redials") > redials && counter("replica_connected") == 1
	})
	applied := counter("replica_entries_applied")
	commitLevel(succ, 11, 9)
	waitFor(t, "next entry applied", func() bool { return store.Seq() == succ.Journal().Seq() })
	if n, got := counter("replica_resets"), counter("replica_entries_applied"); n != 1 || got != applied+1 {
		t.Errorf("resumed with %v resets and %v entries applied, want 1 and %v", n, got, applied+1)
	}
}
