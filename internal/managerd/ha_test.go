package managerd

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
	"repro/internal/wire"
)

// High-availability protocol tests: the epoch welcome/fencing handshake
// on agent connections, and the journal replication stream a standby's
// follower subscribes to.

// journalAt is a memory journal at epoch e: a daemon without a lease leads
// at its journal's epoch.
func journalAt(t *testing.T, e uint64) *replica.Store {
	t.Helper()
	st, err := replica.Open("")
	if err != nil {
		t.Fatal(err)
	}
	st.SetEpoch(e)
	return st
}

// TestHelloEpochWelcomeAndFencing pins the fencing contract on agent
// hellos: a leader with a nonzero epoch announces it as the very first
// manager→agent frame, and a hello reporting a *newer* epoch — the agent
// has met our successor — deposes us on the spot: the hello is refused,
// leadership drops, and every agent connection is shed so the fleet
// redials to the new leader.
func TestHelloEpochWelcomeAndFencing(t *testing.T) {
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPC{},
		Tg:           3,
		ControlEvery: 20 * time.Millisecond,
		Thresholds:   power.Thresholds{PL: units.MW(1), PH: units.MW(2)},
		HA:           daemon.HA{Journal: journalAt(t, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// A plain agent gets the epoch announcement before anything else.
	a := dialFakeAgent(t, srv.Addr(), 1, 9, 9)
	welcome, err := a.Recv()
	if err != nil || welcome.Type != wire.KindHello || welcome.Epoch != 5 {
		t.Fatalf("welcome frame: %+v err=%v", welcome, err)
	}
	if st := srv.Status(); st.Epoch != 5 || !st.Leader {
		t.Fatalf("leader status: %+v", st)
	}

	// An agent that has seen epoch 99 fences us.
	raw, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stale := wire.NewConn(raw)
	t.Cleanup(func() { stale.Close() })
	if err := stale.Send(wire.Envelope{Type: wire.KindHello, Node: 2, MaxLevel: 9, Epoch: 99}); err != nil {
		t.Fatal(err)
	}
	if env, err := stale.Recv(); err == nil {
		t.Fatalf("fenced hello got a reply: %+v", env)
	}
	waitFor(t, 5*time.Second, "deposition", func() bool {
		st := srv.Status()
		return srv.Deposed() && st.FencedHellos == 1 && !st.Leader
	})
	// The first agent's connection is shed too: a deposed leader keeps no
	// one under command.
	waitFor(t, 5*time.Second, "agent shed", func() bool {
		_, err := a.Recv()
		return err != nil
	})
	if st := srv.Status(); st.Epoch != 5 {
		t.Fatalf("deposed server forgot its epoch: %+v", st)
	}
}

// TestReplicationStreamAndResume drives the follower side of the journal
// stream by hand: subscribe from zero, receive the entry each control
// cycle commits, ack it (lag drops to zero), disconnect, and resume from
// the last applied sequence without replaying history.
func TestReplicationStreamAndResume(t *testing.T) {
	srv, err := New(Config{
		Addr:           "127.0.0.1:0",
		Model:          power.TianheNode(),
		Policy:         policy.MPCC{},
		Tg:             3,
		ControlEvery:   time.Hour, // cycles driven via StepCycle
		CommandTimeout: 2 * time.Second,
		Thresholds:     power.Thresholds{PL: 1, PH: 2}, // any live fleet is red
		HeartbeatEvery: -1,
		HA:             daemon.HA{Journal: journalAt(t, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// startAgent connects one hand-rolled agent: swallow the epoch
	// welcome, send a busy sample, then drain commands in the background.
	startAgent := func(id int) {
		c := dialFakeAgent(t, srv.Addr(), id, 9, 9)
		if w, err := c.Recv(); err != nil || w.Type != wire.KindHello || w.Epoch != 1 {
			t.Fatalf("agent %d welcome: %+v err=%v", id, w, err)
		}
		if err := c.Send(busySample(id, 9)); err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
	}
	subscribe := func(fromSeq uint64) *wire.Conn {
		raw, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fc := wire.NewConn(raw)
		t.Cleanup(func() { fc.Close() })
		if err := fc.Send(wire.Envelope{Type: wire.KindJournalAck, Seq: fromSeq}); err != nil {
			t.Fatal(err)
		}
		return fc
	}
	recvEntry := func(fc *wire.Conn) replica.Entry {
		t.Helper()
		env, err := fc.Recv()
		if err != nil || env.Type != wire.KindJournalAppend {
			t.Fatalf("append frame: %+v err=%v", env, err)
		}
		var e replica.Entry
		if err := json.Unmarshal(env.Entry, &e); err != nil {
			t.Fatal(err)
		}
		if e.Seq != env.Seq {
			t.Fatalf("envelope seq %d != entry seq %d", env.Seq, e.Seq)
		}
		return e
	}

	startAgent(1)
	fc := subscribe(0)
	waitFor(t, 5*time.Second, "sample ingested", func() bool {
		return srv.Status().SamplesReceived >= 1
	})
	waitFor(t, 5*time.Second, "follower registered", func() bool {
		return srv.Status().ReplicaConns == 1
	})

	// Cycle 1: deep red floors node 1; the committed entry streams out
	// with the levels and the first threshold publication.
	srv.StepCycle()
	e1 := recvEntry(fc)
	if e1.Seq != 1 || e1.Epoch != 1 || e1.ThrPLW != 1 {
		t.Fatalf("entry 1: %+v", e1)
	}
	found := false
	for _, l := range e1.Levels {
		if l.Node == 1 && l.Level == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("entry 1 missing node 1 floor: %+v", e1.Levels)
	}
	if err := fc.Send(wire.Envelope{Type: wire.KindJournalAck, Seq: e1.Seq}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "lag drained", func() bool {
		st := srv.Status()
		return st.JournalAppends >= 1 && st.ReplicaLagEntries == 0
	})

	// Disconnect; the manager notices and drops the subscriber.
	fc.Close()
	waitFor(t, 5*time.Second, "follower dropped", func() bool {
		return srv.Status().ReplicaConns == 0
	})

	// A second agent joins while no follower is connected; the resumed
	// session must start exactly at the next entry, not replay history.
	startAgent(2)
	waitFor(t, 5*time.Second, "second sample ingested", func() bool {
		return srv.Status().SamplesReceived >= 2
	})
	fc2 := subscribe(srv.journal.Seq())
	waitFor(t, 5*time.Second, "follower re-registered", func() bool {
		return srv.Status().ReplicaConns == 1
	})
	srv.StepCycle()
	e2 := recvEntry(fc2)
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("resumed stream replayed or skipped: %+v after %+v", e2, e1)
	}
	found = false
	for _, l := range e2.Levels {
		if l.Node == 2 && l.Level == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("entry 2 missing node 2 floor: %+v", e2.Levels)
	}
}
