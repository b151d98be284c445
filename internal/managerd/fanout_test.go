package managerd

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Tests for the concurrent actuation path: per-node sender goroutines,
// outbox coalescing, fan-out latency, and the attribution of send errors
// across connection epochs. They run over faultnet, whose links buffer a
// few frames like a socket does — except toward a throttled reader, where
// a write returns only once the peer has drained it. The agents that
// "never read" below therefore dial under neverReads: the manager's write
// to them blocks at once, with no buffer to hide behind, so slow-reader
// scenarios are deterministic.

// neverReads is the client profile of a wedged agent.
var neverReads = faultnet.Profile{ReadBytesPerSec: 1}

// fanoutConfig is the shared daemon shape for these tests: the control
// loop is parked on an hour-long period so the test drives cycles
// explicitly via StepCycle, and heartbeats are off so the only writes are
// the commands under test.
func fanoutConfig(ln *faultnet.Network, cmdTimeout time.Duration, thr power.Thresholds) Config {
	return Config{
		Listener:       ln.Listener(),
		Model:          power.TianheNode(),
		Policy:         policy.MPCC{},
		Tg:             3,
		ControlEvery:   time.Hour,
		Thresholds:     thr,
		CommandTimeout: cmdTimeout,
		HeartbeatEvery: -1,
	}
}

// dialFaultAgent opens a faultnet agent connection under key and sends the
// hello; the test drives (or deliberately neglects) the protocol from
// there.
func dialFaultAgent(t *testing.T, nw *faultnet.Network, key uint64, level, maxLevel int) *wire.Conn {
	t.Helper()
	raw, err := nw.Dial(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(raw)
	if err := c.Send(wire.Envelope{Type: wire.KindHello, Node: int(key), MaxLevel: maxLevel, Level: level}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// currentConn returns the server's registered connection for id (nil if
// none), via the node's record.
func currentConn(s *Server, id node.ID) *agentConn {
	sh := s.nodes.of(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.nodes[id]; rec != nil {
		return rec.ac
	}
	return nil
}

// commandedLevel returns the recorded in-flight command level for id, or
// -1 if none.
func commandedLevel(s *Server, id node.ID) int {
	sh := s.nodes.of(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.nodes[id]; rec != nil && rec.cmd.issued {
		return rec.cmd.level
	}
	return -1
}

// TestSendErrorAttributionAcrossReconnect is the regression test for the
// head-of-line attribution bug: a write that times out on a connection the
// agent has already replaced (reconnect flap) must not be charged to the
// node's CommandErrors — the failure describes a dead epoch, not the
// node's current link. A failure on the *current* connection must still be
// charged.
func TestSendErrorAttributionAcrossReconnect(t *testing.T) {
	nw := faultnet.New(1)
	t.Cleanup(nw.Close)
	srv, err := New(fanoutConfig(nw, 250*time.Millisecond, power.Thresholds{PL: 1e6, PH: 2e6}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// First epoch: connect and never read, so any write to it stalls.
	nw.SetClientProfile(7, neverReads)
	dialFaultAgent(t, nw, 7, 9, 9)
	waitFor(t, 5*time.Second, "agent registered", func() bool {
		return currentConn(srv, 7) != nil
	})
	old := currentConn(srv, 7)

	// Issue a command: the sender picks it up and blocks mid-write.
	if err := (actuator{s: srv}).SetNodeLevel(7, 2); err != nil {
		t.Fatal(err)
	}
	// Wait for the sender to take the command off the outbox — only then
	// is the write wedged against the unread pipe. Redialling earlier
	// would just drop the still-queued command at outbox retirement, and
	// no send error would ever surface.
	waitFor(t, 5*time.Second, "command write in flight", func() bool {
		old.obMu.Lock()
		defer old.obMu.Unlock()
		return !old.obHas
	})

	// The agent redials while that write is still pending. The new epoch
	// also never reads — but no write is in flight on it yet.
	dialFaultAgent(t, nw, 7, 9, 9)
	waitFor(t, 5*time.Second, "reconnect replaced the epoch", func() bool {
		cur := currentConn(srv, 7)
		return cur != nil && cur != old
	})

	// The old epoch's write now times out. It must land in
	// StaleConnErrors, leaving the node's CommandErrors untouched.
	waitFor(t, 5*time.Second, "stale-epoch send error", func() bool {
		return srv.Status().StaleConnErrors == 1
	})
	if st := srv.Status(); st.CommandErrors != 0 {
		t.Fatalf("stale-epoch write failure charged to the node: %+v", st)
	}

	// Control arm: a timeout on the current epoch is the node's fault.
	if err := (actuator{s: srv}).SetNodeLevel(7, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "current-epoch send error", func() bool {
		return srv.Status().CommandErrors == 1
	})
	if st := srv.Status(); st.StaleConnErrors != 1 {
		t.Fatalf("current-epoch failure misfiled as stale: %+v", st)
	}
}

// TestJournalNeverPersistsSupersededLevel pins the journal/sender
// interaction under -race: while a sender is wedged mid-write and newer
// commands coalesce in its outbox, concurrent journal snapshots must
// always capture the newest commanded level — never one that coalescing
// superseded — because SetNodeLevel records the command under the shard
// lock before enqueueing the write. A manager restarted from any of those
// snapshots therefore resumes at the newest level.
func TestJournalNeverPersistsSupersededLevel(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "managerd.journal")
	nw := faultnet.New(2)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, 2*time.Second, power.Thresholds{PL: 1e6, PH: 2e6})
	cfg.JournalPath = jp
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// The agent never reads: the first dispatched command wedges its
	// sender for the full (long) CommandTimeout, and every later command
	// coalesces in the outbox behind it.
	nw.SetClientProfile(9, neverReads)
	dialFaultAgent(t, nw, 9, 9, 9)
	waitFor(t, 5*time.Second, "agent registered", func() bool {
		return currentConn(srv, 9) != nil
	})

	// Journal writers race the command stream from a second goroutine.
	stop := make(chan struct{})
	journalled := make(chan struct{})
	go func() {
		defer close(journalled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.journal.Compact()
			}
		}
	}()

	act := actuator{s: srv}
	for lvl := 5; lvl >= 2; lvl-- {
		if err := act.SetNodeLevel(9, lvl); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-journalled

	// Snapshot taken mid-fan-out (the wedged write is still pending):
	// must already hold the newest level.
	_ = srv.journal.Compact()
	js, err := replica.ReadState(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(js.Levels) != 1 || js.Levels[0].Node != 9 || js.Levels[0].Level != 2 {
		t.Fatalf("journal holds a superseded level: %+v", js.Levels)
	}
	if st := srv.Status(); st.CoalescedCmds < 2 {
		t.Errorf("expected >=2 coalesced commands behind the wedged write, got %+v", st.CoalescedCmds)
	}

	// A manager restarted from the journal resumes at the newest level.
	srv.Stop() // also writes the final snapshot
	cfg2 := cfg
	cfg2.Listener = nil
	cfg2.Addr = "127.0.0.1:0"
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := commandedLevel(srv2, 9); got != 2 {
		t.Fatalf("restart restored level %d, want 2", got)
	}
}

// TestRedFloorFanoutNotSerialized drives the Algorithm 1 red-state
// invariant through the daemon: with power far above P_H, one cycle must
// record a floor (level 0) command for every candidate — including nodes
// whose connections have stopped draining — and the fan-out must complete
// in about one CommandTimeout, not one per wedged node. With 8 of 24
// agents wedged and a 250 ms timeout, the old serial path needed >=2 s;
// the concurrent path is asserted under 1 s.
func TestRedFloorFanoutNotSerialized(t *testing.T) {
	const (
		agents  = 24
		wedged  = 8 // agents that never read their connection
		timeout = 250 * time.Millisecond
	)
	nw := faultnet.New(3)
	t.Cleanup(nw.Close)
	// Thresholds of a few watts put any live fleet deep in red.
	srv, err := New(fanoutConfig(nw, timeout, power.Thresholds{PL: 1, PH: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	for i := 0; i < agents; i++ {
		if i >= agents-wedged {
			nw.SetClientProfile(uint64(i), neverReads)
		}
		c := dialFaultAgent(t, nw, uint64(i), 9, 9)
		if err := c.Send(busySample(i, 9)); err != nil {
			t.Fatal(err)
		}
		if i >= agents-wedged {
			continue // wedged: never reads, so command writes block
		}
		go func() {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
	}
	waitFor(t, 10*time.Second, "all samples ingested", func() bool {
		n := 0
		for _, sh := range srv.nodes.shards {
			sh.mu.Lock()
			for _, rec := range sh.nodes {
				if rec.ac != nil && rec.last.Delta.CPUUtil > 0 {
					n++
				}
			}
			sh.mu.Unlock()
		}
		return n == agents
	})

	d := srv.StepCycle()

	if st := srv.Status(); st.RedCycles != 1 {
		t.Fatalf("fleet not in red: %+v", st)
	}
	// Invariant: every candidate has the floor recorded within the cycle,
	// wedged connections included (their delivery is owed to the retry
	// path, but the commanded state must already be the floor).
	for i := 0; i < agents; i++ {
		if got := commandedLevel(srv, node.ID(i)); got != 0 {
			t.Errorf("node %d commanded level %d after red cycle, want 0", i, got)
		}
	}
	// Latency: the wedged writes time out concurrently.
	if d >= 4*timeout {
		t.Errorf("fan-out took %v with %d wedged nodes; serial writes suspected (budget %v)", d, wedged, 4*timeout)
	}
	// Each wedged node's timeout is charged to it exactly once.
	if st := srv.Status(); st.CommandErrors != wedged {
		t.Errorf("CommandErrors = %d, want %d (one per wedged node)", st.CommandErrors, wedged)
	}
}
