package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/wire"
)

func TestStoreCommitAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.SetLevel(4, 7)
	st.SetLevel(2, 0)
	if e, ok := st.CommitCycle(1, 900, 1000, nil); !ok || e.Seq != 1 || len(e.Levels) != 2 {
		t.Fatalf("first commit: %+v ok=%v", e, ok)
	}
	// Unchanged cycle: watermark advances, no entry.
	if _, ok := st.CommitCycle(2, 900, 1000, nil); ok {
		t.Fatal("no-change cycle emitted an entry")
	}
	st.SetLevel(4, 3)
	if e, ok := st.CommitCycle(3, 900, 1000, nil); !ok || e.Seq != 2 || len(e.Levels) != 1 || e.Levels[0] != (Level{Node: 4, Level: 3}) {
		t.Fatalf("delta commit: %+v ok=%v", e, ok)
	}
	st.Close()

	// Reload without compaction: snapshot (empty) + log replay.
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.State()
	want := Snapshot{LastSeq: 2, SavedAtCycle: 3, ThrPLW: 900, ThrPHW: 1000,
		Levels: []Level{{Node: 2, Level: 0}, {Node: 4, Level: 3}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded state:\n got %+v\nwant %+v", got, want)
	}
}

func TestStoreLogPrefixSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		st.SetLevel(1, i)
		if _, ok := st.CommitCycle(i, 500, 600, nil); !ok {
			t.Fatalf("commit %d dropped", i)
		}
	}
	st.Close()
	// Tear the log: append garbage, then a syntactically valid entry that
	// replay must NOT reach past the tear.
	f, err := os.OpenFile(path+".log", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":4,"levels":[{"node":1,"le` + "\n")
	f.WriteString(`{"seq":5,"cycle":9,"levels":[{"node":1,"level":9}]}` + "\n")
	f.Close()

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.State()
	if got.LastSeq != 3 || got.SavedAtCycle != 3 || len(got.Levels) != 1 || got.Levels[0].Level != 3 {
		t.Fatalf("torn tail changed recovered state: %+v", got)
	}
}

// TestCompactNeverDropsConcurrentAppends is the snapshot-vs-append
// ordering regression: entries committed while compactions run must land
// either inside the snapshot or in the fresh log — reloading must always
// see every committed entry's effect.
func TestCompactNeverDropsConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 400
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := st.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	for i := 1; i <= cycles; i++ {
		st.SetLevel(7, i)
		if _, ok := st.CommitCycle(i, 100, 200, nil); !ok {
			t.Fatalf("commit %d saw no change", i)
		}
	}
	close(stop)
	wg.Wait()
	st.Close()

	got, err := ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != cycles || got.SavedAtCycle != cycles {
		t.Fatalf("lost entries across compaction: %+v", got)
	}
	if len(got.Levels) != 1 || got.Levels[0] != (Level{Node: 7, Level: cycles}) {
		t.Fatalf("final level wrong: %+v", got.Levels)
	}
}

func TestApplyRemoteDuplicateGapAndReset(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	e1 := Entry{Seq: 1, Cycle: 1, Levels: []Level{{Node: 1, Level: 5}}}
	if err := st.ApplyRemote(e1); err != nil {
		t.Fatal(err)
	}
	// Duplicate: silently skipped.
	if err := st.ApplyRemote(e1); err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	// Gap: must surface ErrGap.
	if err := st.ApplyRemote(Entry{Seq: 5}); err != ErrGap {
		t.Fatalf("gap error = %v, want ErrGap", err)
	}
	// Reset replaces everything.
	reset := Entry{Seq: 9, Epoch: 2, Reset: &Snapshot{
		Epoch: 2, LastSeq: 9, SavedAtCycle: 40,
		ThrPLW: 700, ThrPHW: 800, Levels: []Level{{Node: 3, Level: 1}},
	}}
	if err := st.ApplyRemote(reset); err != nil {
		t.Fatal(err)
	}
	got := st.State()
	if got.LastSeq != 9 || got.Epoch != 2 || len(got.Levels) != 1 || got.Levels[0].Node != 3 {
		t.Fatalf("reset not applied wholesale: %+v", got)
	}
	if err := st.ApplyRemote(Entry{Seq: 10, Cycle: 41}); err != nil {
		t.Fatalf("resume after reset: %v", err)
	}
}

// TestEntriesSinceAndResetEntry: the ring serves a follower that is
// within one mirror's worth of levels of the head, and a follower further
// behind gets a Reset stamped with the head sequence. Either answer brings
// a follower's store to the leader's state.
func TestEntriesSinceAndResetEntry(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	learner := &power.LearnerState{LifetimePeakW: 500, Trained: true, PLW: 400, PHW: 450}
	// Entry 1 carries all four levels; entries 2..5 change one each, so
	// entry 2 pushes the ring past the mirror's four levels and drops 1.
	for n := 0; n < 4; n++ {
		st.SetLevel(n, 9)
	}
	first, ok := st.CommitCycle(1, 400, 450, learner)
	if !ok || len(first.Levels) != 4 {
		t.Fatalf("first commit: %+v ok=%v", first, ok)
	}
	for i := 2; i <= 5; i++ {
		st.SetLevel(i%4, i)
		st.CommitCycle(i, 400, 450, learner)
	}
	if es, ok := st.EntriesSince(5); !ok || len(es) != 0 {
		t.Fatalf("caught-up follower: %v %v", es, ok)
	}
	es, ok := st.EntriesSince(1)
	if !ok || len(es) != 4 || es[0].Seq != 2 || es[3].Seq != 5 {
		t.Fatalf("follower one mirror behind: %+v ok=%v", es, ok)
	}
	if es, ok := st.EntriesSince(0); ok {
		t.Fatalf("follower beyond the ring got entries %+v, want a Reset", es)
	}
	re := st.ResetEntry()
	if re.Reset == nil || re.Seq != 5 || re.Reset.LastSeq != 5 || re.Reset.Learner == nil || len(re.Reset.Levels) != 4 {
		t.Fatalf("reset entry: %+v", re)
	}

	want := st.State()
	near, _ := Open("")
	far, _ := Open("")
	for _, e := range append([]Entry{first}, es...) {
		if err := near.ApplyRemote(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := far.ApplyRemote(re); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Store{"replayed": near, "reset": far} {
		if got := f.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s follower:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRingHoldsOneMirrorOfLevels is the ring's bound: a store whose every
// level changes on every commit keeps at most one mirror's worth of levels
// for catch-up — on the leader and on a follower applying the same stream
// — and a Reset empties the ring with its count.
func TestRingHoldsOneMirrorOfLevels(t *testing.T) {
	const nodes, commits = 1024, 600
	leader, _ := Open("")
	follower, _ := Open("")
	check := func(who string, s *Store, commit int) {
		t.Helper()
		held := 0
		for _, e := range s.ring {
			held += len(e.Levels)
		}
		if held != s.ringLvl || held > nodes || len(s.ring) == 0 {
			t.Fatalf("%s after commit %d: ring of %d entries holds %d levels (counted %d), want 1..%d entries within %d",
				who, commit, len(s.ring), held, s.ringLvl, ringMax, nodes)
		}
	}
	for c := 1; c <= commits; c++ {
		for n := 0; n < nodes; n++ {
			leader.SetLevel(n, (c+n)%10)
		}
		e, ok := leader.CommitCycle(c, 0, 0, nil)
		if !ok || len(e.Levels) != nodes {
			t.Fatalf("commit %d: %d levels ok=%v", c, len(e.Levels), ok)
		}
		if err := follower.ApplyRemote(e); err != nil {
			t.Fatal(err)
		}
		check("leader", leader, c)
		check("follower", follower, c)
	}
	if err := follower.ApplyRemote(leader.ResetEntry()); err != nil {
		t.Fatal(err)
	}
	if len(follower.ring) != 0 || follower.ringLvl != 0 {
		t.Fatalf("after a Reset the ring holds %d entries, %d levels", len(follower.ring), follower.ringLvl)
	}
	if !reflect.DeepEqual(follower.State(), leader.State()) {
		t.Fatal("follower diverged from the leader")
	}
}

// TestLevelFreeCatchUpReachesHead: level-free entries are bounded by
// ringMax alone, and a follower a full ringMax of them behind is caught up
// through the publisher in one burst that fits its buffer.
func TestLevelFreeCatchUpReachesHead(t *testing.T) {
	leader, _ := Open("")
	copyStore, _ := Open("")
	const behind = 7
	for c := 1; c <= behind+ringMax; c++ {
		e, ok := leader.CommitCycle(c, float64(1000+c), 2000, nil)
		if !ok {
			t.Fatalf("commit %d saw no change", c)
		}
		if c <= behind {
			copyStore.ApplyRemote(e)
		}
	}
	if es, ok := leader.EntriesSince(behind); !ok || len(es) != ringMax {
		t.Fatalf("ring serves %d entries ok=%v, want %d", len(es), ok, ringMax)
	}
	if _, ok := leader.EntriesSince(behind - 1); ok {
		t.Fatal("ring kept more than ringMax level-free entries")
	}

	pub := NewPublisher(leader, 5*time.Second)
	var served sync.WaitGroup
	f, err := NewFollower(FollowerConfig{Store: copyStore, Dial: func(ctx context.Context) (net.Conn, error) {
		s, c := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			conn := wire.NewConn(s)
			if sub, err := conn.Recv(); err == nil {
				pub.Serve(conn, sub.Seq)
			}
		}()
		return c, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel(); pub.Close(); <-done; served.Wait() }()

	head := leader.Seq()
	for deadline := time.Now().Add(5 * time.Second); copyStore.Seq() < head; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d of %d", copyStore.Seq(), head)
		}
	}
	if !reflect.DeepEqual(copyStore.State(), leader.State()) {
		t.Fatal("follower diverged from the leader")
	}
	if n := f.Obs().Counter("replica_resets").Value(); n != 0 {
		t.Fatalf("catch-up took %d resets, want replay only", n)
	}
}

// TestCommitEncodesOnceForAReader: a memory-only store with no subscriber
// never encodes an entry, and with a log file and a subscriber the log
// line and the published frame are the one json.Marshal's bytes.
func TestCommitEncodesOnceForAReader(t *testing.T) {
	mem, _ := Open("")
	pub := NewPublisher(mem, time.Second)
	level := 0
	var e Entry
	allocs := testing.AllocsPerRun(200, func() {
		level ^= 1
		mem.SetLevel(3, level)
		e, _ = mem.CommitCycle(level+1, 0, 0, nil)
		pub.Publish(e)
	})
	if allocs > 1 || e.raw != nil {
		t.Fatalf("commit+publish without a reader: %.0f allocs, raw %q; want only the entry's levels slice", allocs, e.raw)
	}

	path := filepath.Join(t.TempDir(), "journal.json")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pub = NewPublisher(st, time.Second)
	sub := &pubSub{ch: make(chan wire.Envelope, 1), closed: make(chan struct{})}
	pub.subs[sub] = struct{}{}
	st.SetLevel(3, 4)
	e, _ = st.CommitCycle(1, 900, 1000, nil)
	pub.Publish(e)
	env := <-sub.ch
	line, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != string(env.Entry)+"\n" || len(e.raw) == 0 || &env.Entry[0] != &e.raw[0] {
		t.Fatalf("log line %q and published entry %q are not one encoding", line, env.Entry)
	}
}

func TestLeaseRoundTripAndAtomicity(t *testing.T) {
	l := &Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: 10 * time.Millisecond}
	if _, err := l.Read(); err == nil {
		t.Fatal("read of missing lease succeeded")
	}
	now := time.Now().Truncate(time.Millisecond)
	if err := l.Write(LeaseState{Epoch: 3, Holder: "primary", RenewedAt: now}); err != nil {
		t.Fatal(err)
	}
	st, err := l.Read()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 || st.Holder != "primary" || !st.RenewedAt.Equal(now) {
		t.Fatalf("lease round trip: %+v", st)
	}
}

func TestFollowerReplicatesAndResumes(t *testing.T) {
	// Hand-rolled leader: accept one follower conn at a time over pipes.
	conns := make(chan net.Conn, 16)
	dial := func(ctx context.Context) (net.Conn, error) {
		s, c := net.Pipe()
		select {
		case conns <- s:
			return c, nil
		case <-ctx.Done():
			s.Close()
			c.Close()
			return nil, ctx.Err()
		}
	}
	store, _ := Open("")
	f, err := NewFollower(FollowerConfig{Dial: dial, Store: store, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	send := func(c *wire.Conn, e Entry) {
		t.Helper()
		env, err := appendEnv(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(env); err != nil {
			t.Fatal(err)
		}
	}

	// Session 1: subscribe from 0, stream two entries, check acks.
	lc := wire.NewConn(<-conns)
	sub, err := lc.Recv()
	if err != nil || sub.Type != wire.KindJournalAck || sub.Seq != 0 {
		t.Fatalf("subscribe frame: %+v err=%v", sub, err)
	}
	// net.Pipe is unbuffered: read each ack before the next send, or both
	// sides block mid-write.
	entries := []Entry{
		{Seq: 1, Cycle: 1, Levels: []Level{{Node: 1, Level: 4}}, ThrPLW: 900, ThrPHW: 950},
		{Seq: 2, Cycle: 2, Levels: []Level{{Node: 2, Level: 0}}},
	}
	for _, e := range entries {
		send(lc, e)
		ack, err := lc.Recv()
		if err != nil || ack.Type != wire.KindJournalAck || ack.Seq != e.Seq {
			t.Fatalf("ack %d: %+v err=%v", e.Seq, ack, err)
		}
	}
	// Kill the session; follower must redial and resubscribe from seq 2.
	lc.Close()
	lc2 := wire.NewConn(<-conns)
	sub2, err := lc2.Recv()
	if err != nil || sub2.Seq != 2 {
		t.Fatalf("resubscribe frame: %+v err=%v", sub2, err)
	}
	// A duplicate then a new entry: duplicate is absorbed (but still
	// acked, so the pipe stays drained), new applied.
	send(lc2, Entry{Seq: 2, Cycle: 2, Levels: []Level{{Node: 2, Level: 0}}})
	if ack, err := lc2.Recv(); err != nil || ack.Seq != 2 {
		t.Fatalf("dup ack: %+v err=%v", ack, err)
	}
	send(lc2, Entry{Seq: 3, Cycle: 3, Levels: []Level{{Node: 1, Level: 0}}})
	if ack, err := lc2.Recv(); err != nil || ack.Seq != 3 {
		t.Fatalf("ack 3: %+v err=%v", ack, err)
	}
	got := store.State()
	if got.LastSeq != 3 || got.SavedAtCycle != 3 || got.ThrPLW != 900 {
		t.Fatalf("replicated state: %+v", got)
	}
	if len(got.Levels) != 2 || got.Levels[0] != (Level{1, 0}) || got.Levels[1] != (Level{2, 0}) {
		t.Fatalf("replicated levels: %+v", got.Levels)
	}
	// A gap forces a resubscribe (new session) from the current seq.
	send(lc2, Entry{Seq: 9, Cycle: 9})
	lc3 := wire.NewConn(<-conns)
	sub3, err := lc3.Recv()
	if err != nil || sub3.Seq != 3 {
		t.Fatalf("post-gap resubscribe: %+v err=%v", sub3, err)
	}
	lc2.Close()
	lc3.Close()
}

func TestStandbyPromotesOnStaleLease(t *testing.T) {
	dir := t.TempDir()
	lease := &Lease{Path: filepath.Join(dir, "lease.json"), Every: 10 * time.Millisecond}
	// Leader renews for a while, then "dies".
	if err := lease.Write(LeaseState{Epoch: 1, Holder: "primary", RenewedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	store, _ := Open("")
	store.ApplyRemote(Entry{Seq: 1, Cycle: 1, Levels: []Level{{Node: 1, Level: 2}}})

	var promoted Promotion
	promotedCh := make(chan struct{})
	sb, err := NewStandby(StandbyConfig{
		Follower: FollowerConfig{
			Store:   store,
			Backoff: 5 * time.Millisecond,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return nil, fmt.Errorf("leader gone") // follower just churns
			},
		},
		Lease:      lease,
		MissBudget: 3,
		Holder:     "standby",
		OnPromote: func(p Promotion) error {
			promoted = p
			close(promotedCh)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sb.Run(ctx) }()

	select {
	case <-promotedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("standby never promoted on a stale lease")
	}
	<-done
	if promoted.Epoch != 2 || promoted.Store != store {
		t.Fatalf("promotion: epoch=%d", promoted.Epoch)
	}
	if store.Epoch() != 2 {
		t.Fatalf("store epoch not bumped: %d", store.Epoch())
	}
	st, err := lease.Read()
	if err != nil || st.Epoch != 2 || st.Holder != "standby" {
		t.Fatalf("lease not claimed: %+v err=%v", st, err)
	}
	select {
	case <-sb.Promoted():
	default:
		t.Fatal("Promoted channel not closed")
	}
}

func TestStandbyWaitsForLeaseToExist(t *testing.T) {
	dir := t.TempDir()
	lease := &Lease{Path: filepath.Join(dir, "lease.json"), Every: 5 * time.Millisecond}
	store, _ := Open("")
	sb, err := NewStandby(StandbyConfig{
		Follower: FollowerConfig{Store: store, Addr: "127.0.0.1:1"},
		Lease:    lease, MissBudget: 2, Holder: "standby",
		OnPromote: func(p Promotion) error {
			t.Error("promoted with no leader ever seen")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); sb.Run(ctx) }()
	<-done
}

func appendEnv(e Entry) (wire.Envelope, error) {
	raw, err := json.Marshal(e)
	if err != nil {
		return wire.Envelope{}, err
	}
	return wire.Envelope{Type: wire.KindJournalAppend, Seq: e.Seq, Epoch: e.Epoch, Entry: raw}, nil
}
