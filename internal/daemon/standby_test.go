package daemon_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/power"
	"repro/internal/replica"
)

// standbyConfig is a standby of a leader it can never reach, watching a
// lease nobody has written yet, with its journal copy in memory.
func standbyConfig(t *testing.T) daemon.StandbyConfig {
	t.Helper()
	return daemon.StandbyConfig{
		Follower: replica.FollowerConfig{
			Backoff: time.Millisecond,
			Dial: func(context.Context) (net.Conn, error) {
				return nil, errors.New("no leader to follow")
			},
		},
		Lease:  &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: 5 * time.Millisecond},
		Holder: "standby",
	}
}

// bootChassis boots a real chassis under the promoted HA, as the daemons'
// own boots do.
func bootChassis(ha daemon.HA) (*daemon.Chassis, error) {
	var s stub
	return daemon.Boot(daemon.New(daemon.Options{
		Listen:       []daemon.Endpoint{{Addr: "127.0.0.1:0"}},
		ControlEvery: time.Hour,
		HA:           ha,
		WriteTimeout: time.Second,
	}, s.hooks()))
}

// awaitChassis collects the chassis sb promotes; the test stops it.
func awaitChassis(t *testing.T, sb *daemon.WarmStandby[*daemon.Chassis]) *daemon.Chassis {
	t.Helper()
	c, err := sb.Await(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// wantLeader checks the promoted chassis, its journal (the replicated
// store) and the lease file all carry epoch want under the standby's holder
// name.
func wantLeader(t *testing.T, c *daemon.Chassis, cfg daemon.StandbyConfig, want uint64) {
	t.Helper()
	if c.Epoch() != want {
		t.Errorf("promoted at epoch %d, want %d", c.Epoch(), want)
	}
	if got := c.Journal().Epoch(); got != want {
		t.Errorf("replicated store at epoch %d, want %d", got, want)
	}
	if st, err := cfg.Lease.Read(); err != nil || st.Epoch != want || st.Holder != "standby" {
		t.Errorf("lease %+v err=%v, want {%d standby}", st, err, want)
	}
}

func TestStandbyPromotesOnStaleLease(t *testing.T) {
	cfg := standbyConfig(t)
	cfg.MissBudget = 3
	// The leader renewed once, at epoch 1, then died; the standby's copy
	// on disk holds one entry from it.
	if err := cfg.Lease.Write(replica.LeaseState{Epoch: 1, Holder: "primary", RenewedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	cfg.JournalPath = filepath.Join(t.TempDir(), "standby.journal")
	copied, err := replica.Open(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := copied.ApplyRemote(replica.Entry{Seq: 1, Cycle: 1, Levels: []replica.Level{{Node: 1, Level: 2}}}); err != nil {
		t.Fatal(err)
	}
	copied.Close()
	sb, err := daemon.StartStandby(cfg, bootChassis)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	c := awaitChassis(t, sb)
	wantLeader(t, c, cfg, 2)
	if got := c.Journal().Seq(); got != 1 {
		t.Errorf("promoted journal at seq %d, want the copy's 1 loaded from %s", got, cfg.JournalPath)
	}
}

// A lease seen at epoch 5 that then becomes unreadable still fences: the
// standby raises its empty journal to 5 before booting, so the successor
// claims 6 rather than the 1 an empty journal and a missing file give.
func TestStandbyPromotesPastAnUnreadableLease(t *testing.T) {
	cfg := standbyConfig(t)
	cfg.MissBudget = 2
	// Written once and renewed far into the future: however late the
	// standby's reads are scheduled, the lease cannot go stale while the
	// file exists, so the standby cannot promote before it is removed.
	lease := replica.LeaseState{Epoch: 5, Holder: "primary", RenewedAt: time.Now().Add(time.Hour)}
	if err := cfg.Lease.Write(lease); err != nil {
		t.Fatal(err)
	}
	sb, err := daemon.StartStandby(cfg, bootChassis)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Stop()
	// The standby reads the lease every period; give it many before the
	// file goes. A standby that had never read it would wait for a leader
	// instead of promoting, and Await would fail.
	time.Sleep(40 * cfg.Lease.Every)
	if err := os.Remove(cfg.Lease.Path); err != nil {
		t.Fatal(err)
	}
	wantLeader(t, awaitChassis(t, sb), cfg, 6)
}

func TestStandbyWaitsForLeaseToExist(t *testing.T) {
	cfg := standbyConfig(t)
	cfg.MissBudget = 2
	sb, err := daemon.StartStandby(cfg, func(daemon.HA) (*daemon.Chassis, error) {
		t.Error("promoted with no leader ever seen")
		return nil, errors.New("no leader ever seen")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Await(150 * time.Millisecond); err == nil {
		t.Error("Await returned a daemon")
	}
	if _, promoted := sb.Stop(); promoted {
		t.Error("Stop reports a promoted daemon")
	}
}

func TestStandbyBootsOnceAndHandsOver(t *testing.T) {
	var boots atomic.Int64
	srv := &fakeDaemon{}
	cfg := standbyConfig(t)
	var sb *daemon.WarmStandby[*fakeDaemon]
	sb, err := daemon.StartStandby(cfg, func(ha daemon.HA) (*fakeDaemon, error) {
		boots.Add(1)
		if ha.Journal != sb.Store() || ha.Lease != cfg.Lease || ha.LeaseHolder != "standby" || ha.TakeoverMicros != 0 {
			t.Errorf("promoted HA %+v, want the replicated store and the lease under standby, no leaderless time", ha)
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
	sb, err := daemon.StartStandby(standbyConfig(t), func(daemon.HA) (*fakeDaemon, error) {
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
	booted := make(chan struct{})
	sb, err := daemon.StartStandby(standbyConfig(t), func(daemon.HA) (*fakeDaemon, error) {
		close(booted)
		return srv, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.Promote()
	select {
	case <-booted:
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
	if _, err := daemon.StartStandby(cfg, func(daemon.HA) (*fakeDaemon, error) { return nil, nil }); err == nil {
		t.Fatal("a standby without a lease was accepted")
	}
	cfg = standbyConfig(t)
	cfg.Follower.Store = new(replica.Store)
	if _, err := daemon.StartStandby(cfg, func(daemon.HA) (*fakeDaemon, error) { return nil, nil }); err == nil {
		t.Fatal("a standby handed an open store was accepted: it opens its copy from JournalPath")
	}
}

// logLines counts the entries in a journal's append log.
func logLines(t *testing.T, journal string) int {
	t.Helper()
	b, err := os.ReadFile(journal + ".log")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// A path-backed standby's copy bounds its own log while it follows — the
// store compacts as it applies, however long the leader lives — and a
// standby stopped unpromoted closes it.
func TestStandbyCopyStaysBoundedAndClosesUnpromoted(t *testing.T) {
	var s stub
	leader := newChassis(t, &s, nil)
	if err := leader.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := standbyConfig(t)
	cfg.JournalPath = filepath.Join(t.TempDir(), "standby.journal")
	cfg.Follower.Dial, cfg.Follower.Addr = nil, leader.Addr()
	sb, err := daemon.StartStandby(cfg, func(daemon.HA) (*fakeDaemon, error) {
		t.Error("promoted with no lease ever written")
		return nil, errors.New("no leader ever seen")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower subscribed", func() bool {
		leader.Refresh()
		conns, _ := leader.Obs().Value("replica_conns")
		return conns == 1
	})

	// Every entry is streamed live and applied on its own: more than two
	// logs' worth, one level of eight nodes changed each.
	const entries = 150
	most := 0
	for i := 1; i <= entries; i++ {
		leader.Journal().SetLevel(i%8, i)
		leader.Commit(i, power.Thresholds{}, nil)
		waitFor(t, "entry applied", func() bool { return sb.Store().Seq() == uint64(i) })
		most = max(most, logLines(t, cfg.JournalPath))
	}
	if most > 60 {
		t.Errorf("the standby's log reached %d entries while following, want at most 60", most)
	}

	if _, promoted := sb.Stop(); promoted {
		t.Fatal("Stop reports a promoted daemon")
	}
	if sb.Store().Persistent() {
		t.Error("an unpromoted standby left its journal copy open")
	}
	before := logLines(t, cfg.JournalPath)
	if err := sb.Store().ApplyRemote(replica.Entry{Seq: entries + 1, Levels: []replica.Level{{Node: 1, Level: 1}}}); err != nil {
		t.Fatal(err)
	}
	if after := logLines(t, cfg.JournalPath); after != before {
		t.Errorf("a closed copy still appends: log %d → %d entries", before, after)
	}
}
