package agentd

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/wire"
)

// TestBackoffResetsAfterHealthySession: a manager that serves a healthy
// session and then drops it, over and over (restarts, takeovers), must be
// redialled at the backoff floor every time. The agent's backoff used to
// double after every drop and never reset, so from the seventh drop of an
// agent's lifetime on each redial waited the ceiling.
func TestBackoffResetsAfterHealthySession(t *testing.T) {
	const floor, ceiling = 10 * time.Millisecond, 640 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepts := make(chan time.Time, 16)
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			c := wire.NewConn(raw)
			if _, err := c.Recv(); err == nil { // the hello, answered: a healthy session
				_ = c.Send(wire.Envelope{Type: wire.KindHello})
			}
			accepts <- time.Now()
			c.Close()
		}
	}()
	a, err := New(Config{
		NodeID: 1, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: time.Second, TickEvery: time.Second,
		Model: power.TianheNode(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.RunWithReconnect(ctx, floor, ceiling)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// Ten sessions; the gaps after the 7th, 8th and 9th are where a backoff
	// that never resets sits at the ceiling. The smallest of the three
	// keeps one scheduling hiccup from failing the test.
	var at []time.Time
	for len(at) < 10 {
		select {
		case tm := <-accepts:
			at = append(at, tm)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d sessions in 10 s", len(at))
		}
	}
	gap := ceiling
	for i := 7; i < 10; i++ {
		gap = min(gap, at[i].Sub(at[i-1]))
	}
	if gap >= 4*floor {
		t.Errorf("redial gap after the 7th healthy session = %v, want under 4× the %v floor (ceiling %v)", gap, floor, ceiling)
	}
}
