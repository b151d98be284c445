package managerd

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/wire"
)

// startExternalServer boots a daemon in external-control mode: transport
// up, internal control loop off.
func startExternalServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Addr:            "127.0.0.1:0",
		Model:           power.TianheNode(),
		Policy:          policy.MPC{},
		Tg:              3,
		ControlEvery:    time.Hour, // must not matter: no internal loop
		Thresholds:      power.Thresholds{PL: 200, PH: 400},
		ExternalControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

func TestExternalEpochFiltersStaleReadings(t *testing.T) {
	srv := startExternalServer(t)
	c := dialFakeAgent(t, srv.Addr(), 1, 9, 9)
	waitFor(t, 5*time.Second, "agent registered", func() bool {
		return srv.Status().Agents == 1
	})

	// The hello seeded a reading, but it arrived before the cut: the first
	// cycle must sense nothing.
	if rs := srv.StartExternalCycle(time.Now()).Readings(); len(rs) != 0 {
		t.Fatalf("hello-seeded reading sensed: %+v", rs)
	}

	// A sample pushed after the cut is sensed.
	since := time.Now()
	base := srv.SamplesReceived()
	if err := c.Send(busySample(1, 9)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "sample accepted", func() bool {
		return srv.SamplesReceived() > base
	})
	rs := srv.StartExternalCycle(since).Readings()
	if len(rs) != 1 || rs[0].ID != 1 || rs[0].Level != 9 {
		t.Fatalf("readings = %+v, want node 1 at level 9", rs)
	}

	// Next cut, no new push: the last cycle's sample must not linger.
	if rs := srv.StartExternalCycle(time.Now()).Readings(); len(rs) != 0 {
		t.Fatalf("reading from before the cut sensed: %+v", rs)
	}
}

func TestExternalCycleActuatesAndSettles(t *testing.T) {
	srv := startExternalServer(t)
	c := dialFakeAgent(t, srv.Addr(), 2, 9, 9)
	// Well-behaved agent: ack every command at the commanded level.
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindCommand {
				_ = c.Send(wire.Envelope{Type: wire.KindAck, Node: 2, Seq: env.Seq, Level: env.Level})
			}
		}
	}()
	waitFor(t, 5*time.Second, "agent registered", func() bool {
		return srv.Status().Agents == 1
	})

	cyc := srv.StartExternalCycle(time.Now())
	if err := cyc.SetNodeLevel(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := cyc.Finish(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := srv.UnackedCommands(); n != 0 {
		t.Errorf("UnackedCommands = %d after Finish", n)
	}
	if st := srv.Status(); st.CommandAcks < 1 {
		t.Errorf("no acks counted: %+v", st)
	}
}

func TestExternalCycleRetriesUnacked(t *testing.T) {
	srv := startExternalServer(t)
	c := dialFakeAgent(t, srv.Addr(), 3, 9, 9)
	// Deaf agent: reads commands but never acks.
	acks := make(chan wire.Envelope, 16)
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindCommand {
				acks <- env
			}
		}
	}()
	waitFor(t, 5*time.Second, "agent registered", func() bool {
		return srv.Status().Agents == 1
	})

	cyc := srv.StartExternalCycle(time.Now())
	if err := cyc.SetNodeLevel(3, 5); err != nil {
		t.Fatal(err)
	}
	// The command is never acked, so the cycle cannot settle.
	if err := cyc.Finish(50 * time.Millisecond); err == nil {
		t.Fatal("Finish succeeded with an unacked command")
	}
	if n := srv.UnackedCommands(); n != 1 {
		t.Fatalf("UnackedCommands = %d, want 1", n)
	}

	// The next cycle's transport upkeep must re-send it.
	cyc2 := srv.StartExternalCycle(time.Now())
	waitFor(t, 5*time.Second, "command retried", func() bool {
		return srv.Status().CommandRetries >= 1
	})
	// Both the original and the retry arrive at the agent; retries keep
	// the original sequence number.
	got := 0
	var seq uint64
	deadline := time.After(5 * time.Second)
	for got < 2 {
		select {
		case env := <-acks:
			if env.Level != 5 {
				t.Errorf("commanded level %d, want 5", env.Level)
			}
			seq = env.Seq
			got++
		case <-deadline:
			t.Fatalf("agent saw %d commands, want 2 (original + retry)", got)
		}
	}
	// Ack the retry: the pending command finally settles.
	if err := c.Send(wire.Envelope{Type: wire.KindAck, Node: 3, Seq: seq, Level: 5}); err != nil {
		t.Fatal(err)
	}
	_ = cyc2
	waitFor(t, 5*time.Second, "command settled", func() bool {
		return srv.UnackedCommands() == 0
	})
}
