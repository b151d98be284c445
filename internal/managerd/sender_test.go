package managerd

import (
	"encoding/json"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/wire"
)

// Tests for the on-demand sender's lifecycle (sender.go) and for
// connection registration order (serveConn). They are written to be run
// with -race -count=10: each one races the transitions the design argues
// are safe — a sender deciding to exit against an enqueue, an enqueue
// against outbox retirement, Stop against a sender that has just started —
// and checks the two accounting invariants: no command is left in an
// outbox with nobody to write it, and every fan-out slot is released
// exactly once (a second release closes fanout.done twice and panics; a
// missing one leaves it open and the wait below times out). Messages go
// through deliver, the one dispatch path; over net.Pipe, which cannot
// write without blocking, it always takes the outbox.

// idleServer builds a server that is never started: no listener and no
// loops, just the state the sender and serveConn paths need. Stop still
// joins every goroutine they start.
func idleServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Model:          power.TianheNode(),
		Policy:         policy.MPCC{},
		Tg:             3,
		ControlEvery:   time.Hour,
		Thresholds:     power.Thresholds{PL: 1e6, PH: 2e6},
		CommandTimeout: 5 * time.Second,
		HeartbeatEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// pipedConn returns an unregistered agent connection whose peer reads
// everything the manager writes and counts the commands, batched or not.
func pipedConn(t *testing.T, id node.ID) (ac *agentConn, cmds *atomic.Int64) {
	t.Helper()
	server, client := net.Pipe()
	cmds = new(atomic.Int64)
	peer := wire.NewConn(client)
	go func() {
		for {
			env, err := peer.Recv()
			if err != nil {
				return
			}
			for _, e := range append(env.Batch, env) {
				if e.Type == wire.KindCommand {
					cmds.Add(1)
				}
			}
		}
	}()
	t.Cleanup(func() { peer.Close() })
	return &agentConn{id: id, conn: wire.NewConn(server)}, cmds
}

// dialDrainingAgents connects n hand-rolled agents (nodes 0..n-1) whose
// only behaviour is to read every frame the manager writes and hand it to
// got, and waits until the manager has registered them all.
func dialDrainingAgents(t *testing.T, nw *faultnet.Network, srv *Server, n int, got func(wire.Envelope)) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := dialFaultAgent(t, nw, uint64(i), 9, 9)
		go func() {
			for {
				env, err := c.Recv()
				if err != nil {
					return
				}
				got(env)
			}
		}()
	}
	waitFor(t, 30*time.Second, "agents registered", func() bool { return srv.Status().Agents == n })
}

// awaitFanout fails the test if the fan-out does not complete.
func awaitFanout(t *testing.T, fan *fanout, what string) {
	t.Helper()
	select {
	case <-fan.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: fan-out never completed: %d slots still held", what, fan.pending.Load())
	}
}

// outboxIdle reports whether ac's outbox is empty with no sender running.
func outboxIdle(ac *agentConn) bool {
	ac.obMu.Lock()
	defer ac.obMu.Unlock()
	return !ac.obHas && !ac.obPing && !ac.obSending
}

// TestSenderExitVersusEnqueue races enqueues against a sender that keeps
// finding its outbox empty and exiting (the peer drains instantly, so
// nearly every burst meets a sender on its way out).
func TestSenderExitVersusEnqueue(t *testing.T) {
	srv := idleServer(t)
	ac, cmds := pipedConn(t, 1)
	const rounds, writers = 300, 4
	for r := 0; r < rounds; r++ {
		fan := srv.newFanout(time.Now(), srv.trace.Begin())
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.dispatch(ac, 3, srv.seq.Add(1), fan)
				srv.deliver(ac, pendingCmd{}, false)
			}()
		}
		wg.Wait()
		fan.finishEnqueue()
		awaitFanout(t, fan, "enqueue vs sender exit")
		if got := fan.issued.Load(); got != writers {
			t.Fatalf("round %d: %d slots claimed, want %d", r, got, writers)
		}
	}
	waitFor(t, 5*time.Second, "outbox drained and sender gone", func() bool { return outboxIdle(ac) })
	// Nothing closed this outbox, so every command was either written or
	// superseded by a newer one before its write. (The peer may still be
	// decoding the last frame, hence the wait.)
	waitFor(t, 5*time.Second, "every command written or coalesced", func() bool {
		return cmds.Load()+srv.coalesced.Value() == rounds*writers
	})
	if w := cmds.Load(); w < rounds {
		t.Errorf("%d commands written over %d rounds; each round's newest must be", w, rounds)
	}
}

// TestSenderEnqueueVersusRetire races enqueues against the outbox being
// retired under them: whichever side wins each command, its slot is
// released once, and a retired outbox never starts another sender.
func TestSenderEnqueueVersusRetire(t *testing.T) {
	srv := idleServer(t)
	const rounds, writers = 200, 4
	for r := 0; r < rounds; r++ {
		ac, _ := pipedConn(t, node.ID(r))
		fan := srv.newFanout(time.Now(), srv.trace.Begin())
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.dispatch(ac, 2, srv.seq.Add(1), fan)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.retireOutbox(ac)
		}()
		wg.Wait()
		fan.finishEnqueue()
		awaitFanout(t, fan, "enqueue vs retire")

		waitFor(t, 5*time.Second, "retired outbox idle", func() bool { return outboxIdle(ac) })
		srv.deliver(ac, pendingCmd{level: 1, seq: srv.seq.Add(1)}, true)
		srv.deliver(ac, pendingCmd{}, false)
		if !outboxIdle(ac) {
			t.Fatalf("round %d: a retired outbox took a message or started a sender", r)
		}
		ac.conn.Close()
	}
}

// TestSenderStopVersusStart stops a server while pings are still starting
// senders: the pinger outruns the agents' reads, so their links fill and
// decline, and each then gets a sender. Stop must return (every started
// sender was counted before the wait began), and a ping that arrives
// afterwards must start nothing — under -race a wg.Add after wg.Wait is
// reported.
func TestSenderStopVersusStart(t *testing.T) {
	const agents = 16
	var started int64
	defer func() {
		if started == 0 {
			t.Error("no ping ever started a sender: the race under test never ran")
		}
	}()
	for iter := 0; iter < 20; iter++ {
		nw := faultnet.New(int64(100 + iter))
		srv, err := New(fanoutConfig(nw, time.Second, power.Thresholds{PL: 1e6, PH: 2e6}))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		dialDrainingAgents(t, nw, srv, agents, func(wire.Envelope) {})
		var acs []*agentConn
		for i := 0; i < agents; i++ {
			acs = append(acs, currentConn(srv, node.ID(i)))
		}

		quit, pinged := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(pinged)
			for {
				select {
				case <-quit:
					return
				default:
					for _, ac := range acs {
						srv.deliver(ac, pendingCmd{}, false)
					}
				}
			}
		}()
		time.Sleep(time.Duration(iter%5) * 200 * time.Microsecond)
		srv.Stop()
		// The pinger is still running against the stopped server here.
		for _, ac := range acs {
			srv.deliver(ac, pendingCmd{}, false)
		}
		close(quit)
		<-pinged
		started += srv.senderStarts.Load()
		for _, ac := range acs {
			if !outboxIdle(ac) {
				t.Fatalf("iteration %d: node %d has a sender or a queued ping after Stop", iter, ac.id)
			}
		}
		nw.Close()
	}
}

// TestHeartbeatTickReturnsToBaseline pings 1024 idle agents once: every
// ping is written through by the tick itself — no per-node sender starts —
// and the goroutine count is back at its baseline: an idle connection
// parks no sender. The tick also reuses one scratch list across shards
// instead of allocating one per shard.
func TestHeartbeatTickReturnsToBaseline(t *testing.T) {
	const agents = 1024
	nw := faultnet.New(7)
	t.Cleanup(nw.Close)
	srv, err := New(fanoutConfig(nw, 5*time.Second, power.Thresholds{PL: 1e6, PH: 2e6}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var pings atomic.Int64
	dialDrainingAgents(t, nw, srv, agents, func(env wire.Envelope) {
		if env.Type == wire.KindPing {
			pings.Add(1)
		}
	})
	base := runtime.NumGoroutine()
	senders := srv.senderStarts.Load()

	scratch := srv.pingAll(nil)
	waitFor(t, 30*time.Second, "every agent pinged", func() bool { return pings.Load() == agents })
	waitFor(t, 10*time.Second, "senders gone", func() bool { return runtime.NumGoroutine() <= base })

	// A second tick over the warmed scratch lists the fleet without
	// allocating.
	pings.Store(0)
	if again := srv.pingAll(scratch); cap(again) != cap(scratch) {
		t.Errorf("scratch regrown on a second tick: cap %d -> %d", cap(scratch), cap(again))
	}
	waitFor(t, 30*time.Second, "every agent pinged again", func() bool { return pings.Load() == agents })
	waitFor(t, 10*time.Second, "senders gone again", func() bool { return runtime.NumGoroutine() <= base })
	if n := srv.senderStarts.Load() - senders; n != 0 {
		t.Errorf("two ticks over idle links started %d per-node senders, want 0", n)
	}
}

// TestLateHelloDoesNotEvictNewerConnection is the regression test for the
// TestQuarantineExcludesFlappingNode flake: hellos are handled on
// per-connection goroutines, so a bounced connection's hello can be
// processed after its successor's. serveConn used to treat whichever
// hello it handled last as the newest connection — it evicted and closed
// the live one, then hit EOF on the dead one and deregistered that too,
// leaving the node with no connection at all. Here the two hellos are fed
// to serveConn in exactly that reversed order.
func TestLateHelloDoesNotEvictNewerConnection(t *testing.T) {
	srv := idleServer(t)
	// The chassis has read the hello by the time it calls the session
	// handler, so the hello is handed over rather than sent.
	serve := func(accepted uint64, level int) (peer *wire.Conn, done chan struct{}) {
		server, client := net.Pipe()
		done = make(chan struct{})
		go func() {
			defer close(done)
			hello := wire.Envelope{Type: wire.KindHello, Node: 5, MaxLevel: 9, Level: level}
			runSession(srv, wire.NewConn(server), &hello, accepted)
		}()
		peer = wire.NewConn(client)
		t.Cleanup(func() { peer.Close() })
		return peer, done
	}

	// The live connection was accepted second but its hello is handled
	// first.
	live, _ := serve(2, 9)
	waitFor(t, 5*time.Second, "live connection registered", func() bool { return currentConn(srv, 5) != nil })
	registered := currentConn(srv, 5)
	seeded := readingOf(srv, 5)

	// The bounced connection: accepted first, hello handled late, and
	// closed by its client straight after.
	bounced, done := serve(1, 3)
	bounced.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the refused connection's serveConn never returned")
	}

	if cur := currentConn(srv, 5); cur != registered {
		t.Fatalf("late hello replaced the newer connection (registered %p, now %p)", registered, cur)
	}
	if got := readingOf(srv, 5); got != seeded {
		t.Errorf("the refused hello wrote to the record: reading %+v, want the live hello's %+v", got, seeded)
	}
	if err := live.Send(busySample(5, 9)); err != nil {
		t.Fatalf("live connection was closed: %v", err)
	}
	waitFor(t, 5*time.Second, "sample on the live connection", func() bool { return srv.SamplesReceived() == 1 })
	sh := srv.nodes.of(5)
	sh.mu.Lock()
	connects := len(sh.nodes[5].health.connects)
	sh.mu.Unlock()
	if st := srv.Status(); st.Agents != 1 || connects != 2 {
		t.Errorf("agents = %d, counted connects = %d; want 1 and 2 (a refused hello is still a flap)", st.Agents, connects)
	}

	// A genuinely newer connection still replaces the registered one.
	serve(3, 9)
	waitFor(t, 5*time.Second, "redial replaced the connection", func() bool {
		cur := currentConn(srv, 5)
		return cur != nil && cur != registered
	})
	if n := recordCount(srv); n != 1 {
		t.Errorf("%d records after three hellos for one node, want 1", n)
	}
}

// runSession is what the chassis does with an agent connection whose hello
// it has read: serveConn's handshake, then the loop it returns; a refused
// connection is closed.
func runSession(srv *Server, conn *wire.Conn, first *wire.Envelope, accepted uint64) {
	if serve := srv.serveConn(conn, first, accepted); serve != nil {
		serve()
	} else {
		conn.Close()
	}
}

// reading is the part of a node's record that its connection's frames write.
type reading struct {
	last      manager.AgentReading
	lastAt    time.Time
	lastEpoch uint64
}

func readingOf(s *Server, id node.ID) reading {
	sh := s.nodes.of(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.nodes[id]
	return reading{rec.last, rec.lastAt, rec.lastEpoch}
}

// heldConn is the manager's end of a connection whose inbound bytes came
// off the wire before it was closed but are handled only once release is:
// what a reader goroutine descheduled between its Read and the shard lock
// holds.
type heldConn struct {
	release chan struct{}
	read    []byte
}

func (c *heldConn) Read(p []byte) (int, error) {
	<-c.release
	if len(c.read) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.read)
	c.read = c.read[n:]
	return n, nil
}
func (c *heldConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *heldConn) Close() error                { return nil }

// TestLateSampleFromReplacedConnIsDropped: the reading is the node's, so a
// sample and an ack's level echo that a replaced connection still delivers
// must not overwrite what its successor wrote. The ack itself still settles
// the command (that is the record's too, and the agent did apply it), and
// the sample still counts as received.
func TestLateSampleFromReplacedConnIsDropped(t *testing.T) {
	srv := idleServer(t)
	hello := func(level int) *wire.Envelope {
		return &wire.Envelope{Type: wire.KindHello, Node: 5, MaxLevel: 9, Level: level}
	}

	var late []byte
	for _, env := range []wire.Envelope{busySample(5, 2), {Type: wire.KindAck, Node: 5, Seq: 77, Level: 4}} {
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		late = append(append(late, b...), '\n')
	}
	a := &heldConn{release: make(chan struct{}), read: late}
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		runSession(srv, wire.NewConn(a), hello(9), 1)
	}()
	waitFor(t, 5*time.Second, "connection A registered", func() bool { return currentConn(srv, 5) != nil })
	connA := currentConn(srv, 5)
	sh := srv.nodes.of(5)
	sh.mu.Lock()
	sh.setCmd(sh.nodes[5], cmdState{issued: true, level: 4, seq: 77})
	sh.mu.Unlock()

	server, client := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go runSession(srv, wire.NewConn(server), hello(7), 2)
	waitFor(t, 5*time.Second, "connection B replaced A", func() bool { return currentConn(srv, 5) != connA })
	connB, seeded := currentConn(srv, 5), readingOf(srv, 5)
	if seeded.last.Level != 7 || seeded.lastEpoch != 0 {
		t.Fatalf("after B's hello the record reads %+v, want B's level 7 outside any epoch", seeded)
	}

	srv.BeginSenseEpoch() // a sample handled from here on would be stamped 1
	close(a.release)
	select {
	case <-aDone:
	case <-time.After(5 * time.Second):
		t.Fatal("connection A's serveConn never returned")
	}
	if got := readingOf(srv, 5); got != seeded {
		t.Errorf("A's late frames wrote to the record: reading %+v, want B's %+v", got, seeded)
	}
	if cur := currentConn(srv, 5); cur != connB {
		t.Errorf("A's teardown deregistered its successor (now %p, want %p)", cur, connB)
	}
	if n, unacked := srv.SamplesReceived(), srv.UnackedCommands(); n != 1 || unacked != 0 {
		t.Errorf("samples received = %d, unacked commands = %d; want 1 and 0 (both frames were handled)", n, unacked)
	}
}
