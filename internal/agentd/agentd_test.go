package agentd

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/power"
	"repro/internal/wire"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Model: power.TianheNode(), SampleEvery: 0, TickEvery: time.Millisecond}); err == nil {
		t.Error("zero sample interval accepted")
	}
	if _, err := New(Config{Model: power.TianheNode(), SampleEvery: time.Second, TickEvery: 0}); err == nil {
		t.Error("zero tick interval accepted")
	}
	if _, err := New(Config{SampleEvery: time.Second, TickEvery: time.Second}); err == nil {
		t.Error("zero model accepted")
	}
}

func TestRunDialFailure(t *testing.T) {
	a, err := New(Config{
		NodeID: 1, ManagerAddrs: []string{"127.0.0.1:1"},
		SampleEvery: 10 * time.Millisecond, TickEvery: time.Millisecond,
		Model: power.TianheNode(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); err == nil {
		t.Error("dial to dead address succeeded")
	}
}

// TestAgentProtocol runs a bare TCP server standing in for the manager and
// checks the agent's hello, sample cadence and command handling.
func TestAgentProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		hello   wire.Envelope
		samples []wire.Envelope
	}
	resCh := make(chan result, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		var res result
		res.hello, _ = c.Recv()
		// Collect three samples, then command level 2.
		for len(res.samples) < 3 {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindSample {
				res.samples = append(res.samples, env)
			}
		}
		_ = c.Send(wire.Envelope{Type: wire.KindCommand, Node: 7, Level: 2})
		resCh <- res
	}()

	a, err := New(Config{
		NodeID: 7, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 30 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.Run(ctx) }()

	select {
	case res := <-resCh:
		if res.hello.Type != wire.KindHello || res.hello.Node != 7 || res.hello.MaxLevel != 9 {
			t.Errorf("hello = %+v", res.hello)
		}
		for i, s := range res.samples {
			if s.Node != 7 {
				t.Errorf("sample = %+v", s)
			}
			// The first sample is a warm-up with an empty delta (no
			// previous snapshot); later ones carry real counters.
			if i > 0 && s.MemTotal == 0 {
				t.Errorf("sample %d has empty delta: %+v", i, s)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no samples received")
	}

	// The command must eventually be applied.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Level() == 2 && a.CommandsApplied() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("command not applied: level=%d applied=%d", a.Level(), a.CommandsApplied())
}

// TestCommandAckAndHelloLevel: a command must be acknowledged with its
// sequence number and the applied level, and a reconnect's hello must
// carry the throttled level rather than implying full power.
func TestCommandAckAndHelloLevel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type round struct {
		hello wire.Envelope
		ack   wire.Envelope
	}
	rounds := make(chan round, 2)
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			c := wire.NewConn(raw)
			var r round
			r.hello, _ = c.Recv()
			// Throttle to level 4 with a distinctive sequence number,
			// then wait for the ack (skipping samples).
			_ = c.Send(wire.Envelope{Type: wire.KindCommand, Level: 4, Seq: 99})
			for {
				env, err := c.Recv()
				if err != nil {
					return
				}
				if env.Type == wire.KindAck {
					r.ack = env
					break
				}
			}
			rounds <- r
			c.Close() // slam shut: force the agent to redial
		}
	}()

	a, err := New(Config{
		NodeID: 5, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 20 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.RunWithReconnect(ctx, 10*time.Millisecond, 50*time.Millisecond)

	get := func() round {
		select {
		case r := <-rounds:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("no round completed")
			return round{}
		}
	}
	first := get()
	if first.hello.Level != 9 {
		t.Errorf("first hello level = %d, want full power 9", first.hello.Level)
	}
	if first.ack.Seq != 99 || first.ack.Level != 4 || first.ack.Node != 5 {
		t.Errorf("ack = %+v, want seq 99 level 4 node 5", first.ack)
	}
	second := get()
	// The reconnect hello must report the throttled level.
	if second.hello.Level != 4 {
		t.Errorf("reconnect hello level = %d, want 4", second.hello.Level)
	}
}

// TestBatchedCommandApplied: a command arriving inside a batch frame (the
// manager's coalesced command+heartbeat write) must be applied and acked
// exactly like a bare command, and the ping in the same frame must count
// as manager contact. Batches must not nest: a command wrapped two levels
// deep is ignored.
func TestBatchedCommandApplied(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	acks := make(chan wire.Envelope, 4)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		_, _ = c.Recv() // hello
		_ = c.SendBatch([]wire.Envelope{
			{Type: wire.KindCommand, Level: 3, Seq: 7},
			{Type: wire.KindPing},
		})
		// Nested batch: the inner command must NOT be applied.
		_ = c.Send(wire.Envelope{Type: wire.KindBatch, Batch: []wire.Envelope{
			{Type: wire.KindBatch, Batch: []wire.Envelope{
				{Type: wire.KindCommand, Level: 0, Seq: 8},
			}},
		}})
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindAck {
				acks <- env
			}
		}
	}()

	a, err := New(Config{
		NodeID: 6, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 20 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.Run(ctx) }()

	select {
	case ack := <-acks:
		if ack.Seq != 7 || ack.Level != 3 {
			t.Errorf("ack = %+v, want seq 7 level 3", ack)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batched command never acked")
	}
	// The nested command would ack seq 8 and floor the node; give it a
	// moment to (not) happen.
	time.Sleep(100 * time.Millisecond)
	if lvl := a.Level(); lvl != 3 {
		t.Errorf("level = %d, want 3 (nested batch command must be ignored)", lvl)
	}
	select {
	case ack := <-acks:
		t.Errorf("nested batch command acked: %+v", ack)
	default:
	}
}

// TestDeadManSwitchTripsWhileDisconnected: with no manager listening, the
// dead-man switch must self-degrade the node to the failsafe floor within
// the grace window, and report the trip.
func TestDeadManSwitchTripsWhileDisconnected(t *testing.T) {
	a, err := New(Config{
		NodeID: 1, ManagerAddrs: []string{"127.0.0.1:1"},
		SampleEvery: 20 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 1,
		FailsafeAfter: 3, FailsafeLevel: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		a.RunWithReconnect(ctx, 10*time.Millisecond, 50*time.Millisecond)
		close(done)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Tripped() && a.Level() == 0 && a.FailsafeTrips() == 1 {
			cancel()
			<-done
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dead-man switch never tripped: level=%d tripped=%v trips=%d",
		a.Level(), a.Tripped(), a.FailsafeTrips())
}

// TestDeadManSwitchSilentManagerAndRecovery: a connected manager that
// never sends anything must trip the switch; a ping re-arms it without
// moving the level (reconciliation is the manager's job).
func TestDeadManSwitchSilentManagerAndRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan *wire.Conn, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		// Drain the agent's stream so writes never block, but stay silent.
		go func() {
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
		connCh <- c
	}()

	a, err := New(Config{
		NodeID: 2, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 20 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 4,
		FailsafeAfter: 3, FailsafeLevel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.RunWithReconnect(ctx, 10*time.Millisecond, 50*time.Millisecond)

	var mconn *wire.Conn
	select {
	case mconn = <-connCh:
	case <-time.After(5 * time.Second):
		t.Fatal("agent never connected")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Tripped() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !a.Tripped() || a.Level() != 1 {
		t.Fatalf("silent manager did not trip switch: level=%d tripped=%v", a.Level(), a.Tripped())
	}

	// A heartbeat re-arms the switch; the level stays at the floor until
	// the manager reconciles with an explicit command.
	if err := mconn.Send(wire.Envelope{Type: wire.KindPing}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !a.Tripped() {
			if got := a.Level(); got != 1 {
				t.Errorf("ping moved the level to %d; reconciliation is the manager's job", got)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ping never re-armed the dead-man switch")
}

func TestFailsafeConfigValidation(t *testing.T) {
	bad := Config{
		NodeID: 1, SampleEvery: time.Second, TickEvery: time.Millisecond,
		Model: power.TianheNode(), FailsafeAfter: 2, FailsafeLevel: 99,
	}
	if _, err := New(bad); err == nil {
		t.Error("out-of-range failsafe level accepted")
	}
	bad.FailsafeLevel = -1
	if _, err := New(bad); err == nil {
		t.Error("negative failsafe level accepted")
	}
}

func TestSyntheticLoadVaries(t *testing.T) {
	a, err := New(Config{
		NodeID: 1, SampleEvery: 100 * time.Millisecond, TickEvery: 10 * time.Millisecond,
		Model: power.TianheNode(), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the synthetic pattern directly and check it produces
	// non-trivial utilisation over time.
	busySeen, idleSeen := false, false
	for i := 0; i < 20000; i++ {
		a.step()
		r := a.sample()
		if r.Delta.CPUUtil > 0.3 {
			busySeen = true
		}
		if r.Delta.CPUUtil < 0.1 {
			idleSeen = true
		}
	}
	if !busySeen || !idleSeen {
		t.Errorf("synthetic load not varying: busy=%v idle=%v", busySeen, idleSeen)
	}
}

func TestRunWithReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A rude server: accept, read the hello, slam the connection shut.
	// The agent must come back.
	conns := make(chan struct{}, 16)
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			c := wire.NewConn(raw)
			_, _ = c.Recv() // hello
			conns <- struct{}{}
			c.Close()
		}
	}()
	a, err := New(Config{
		NodeID: 1, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 20 * time.Millisecond, TickEvery: 5 * time.Millisecond,
		Model: power.TianheNode(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		a.RunWithReconnect(ctx, 10*time.Millisecond, 50*time.Millisecond)
		close(done)
	}()

	// At least three distinct connections within the deadline.
	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < 3 {
		select {
		case <-conns:
			seen++
		case <-deadline:
			t.Fatalf("only %d reconnects", seen)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunWithReconnect did not stop on cancel")
	}
}

func TestPassiveConfigValidation(t *testing.T) {
	apply := func(level int) (int, error) { return level, nil }
	base := Config{
		NodeID: 1, ManagerAddrs: []string{"127.0.0.1:1"},
		SampleEvery: time.Second, TickEvery: time.Second,
		Model: power.TianheNode(),
	}
	cases := map[string]func(*Config){
		"nil Apply":         func(c *Config) { c.Passive = true },
		"negative max":      func(c *Config) { c.Passive = true; c.Apply = apply; c.MaxLevel = -1 },
		"initial above max": func(c *Config) { c.Passive = true; c.Apply = apply; c.MaxLevel = 5; c.InitialLevel = 6 },
		"failsafe above max": func(c *Config) {
			c.Passive = true
			c.Apply = apply
			c.MaxLevel = 5
			c.FailsafeAfter = 3
			c.FailsafeLevel = 6
		},
		"negative failsafe lvl": func(c *Config) {
			c.Passive = true
			c.Apply = apply
			c.MaxLevel = 5
			c.FailsafeAfter = 3
			c.FailsafeLevel = -1
		},
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	cfg := base
	cfg.Passive, cfg.Apply, cfg.MaxLevel, cfg.InitialLevel = true, apply, 9, 7
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level() != 7 {
		t.Errorf("Level = %d, want InitialLevel 7", a.Level())
	}
}

func TestPassivePushReadingRequiresConnection(t *testing.T) {
	a, err := New(Config{
		NodeID: 1, ManagerAddrs: []string{"127.0.0.1:1"},
		SampleEvery: time.Second, TickEvery: time.Second,
		Model:   power.TianheNode(),
		Passive: true, MaxLevel: 9,
		Apply: func(level int) (int, error) { return level, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PushReading(manager.AgentReading{ID: 1, Level: 9, MaxLevel: 9}); err == nil {
		t.Error("PushReading succeeded while disconnected")
	}
}

// TestPassiveProtocol drives a passive relay agent against a bare TCP
// stand-in manager: the hello must advertise the external node's levels,
// PushReading must surface as a wire sample, and a command must round-trip
// through the Apply callback into an ack carrying the applied level.
func TestPassiveProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	helloCh := make(chan wire.Envelope, 1)
	sampleCh := make(chan wire.Envelope, 1)
	ackCh := make(chan wire.Envelope, 1)
	connCh := make(chan *wire.Conn, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		connCh <- c
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			switch env.Type {
			case wire.KindHello:
				helloCh <- env
			case wire.KindSample:
				sampleCh <- env
			case wire.KindAck:
				ackCh <- env
			}
		}
	}()

	var mu sync.Mutex
	extLevel := 7 // the externally owned node's actual state
	a, err := New(Config{
		NodeID: 4, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: time.Hour, TickEvery: time.Hour, // no self-paced traffic
		Model:   power.TianheNode(),
		Passive: true, MaxLevel: 9, InitialLevel: 7,
		Apply: func(level int) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			extLevel = level
			return extLevel, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.Run(ctx) }()

	var conn *wire.Conn
	select {
	case hello := <-helloCh:
		if hello.Node != 4 || hello.MaxLevel != 9 || hello.Level != 7 {
			t.Fatalf("hello = %+v, want node 4 max 9 level 7", hello)
		}
		conn = <-connCh
	case <-time.After(5 * time.Second):
		t.Fatal("no hello")
	}

	// Push one reading on the driver's clock.
	r := manager.AgentReading{ID: 4, Level: 7, MaxLevel: 9, Job: 2}
	r.Delta.CPUUtil = 0.9
	r.Delta.Interval = 250 * time.Millisecond
	waitFor := time.Now().Add(5 * time.Second)
	for {
		if err := a.PushReading(r); err == nil {
			break
		} else if time.Now().After(waitFor) {
			t.Fatalf("PushReading never connected: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case s := <-sampleCh:
		if s.Node != 4 || s.Level != 7 || s.CPUUtil != 0.9 || s.IntervalMS != 250 || s.Job != 2 {
			t.Errorf("sample = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no sample")
	}

	// Command level 3: Apply mutates the external node, ack reports it.
	if err := conn.Send(wire.Envelope{Type: wire.KindCommand, Node: 4, Level: 3, Seq: 11}); err != nil {
		t.Fatal(err)
	}
	select {
	case ack := <-ackCh:
		if ack.Seq != 11 || ack.Level != 3 {
			t.Errorf("ack = %+v, want seq 11 level 3", ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack")
	}
	mu.Lock()
	got := extLevel
	mu.Unlock()
	if got != 3 {
		t.Errorf("external node level = %d, want 3", got)
	}
	if a.Level() != 3 {
		t.Errorf("agent cached level = %d, want 3", a.Level())
	}
	if a.CommandsApplied() != 1 {
		t.Errorf("CommandsApplied = %d, want 1", a.CommandsApplied())
	}
}

// TestPassiveDeadManTripsAndClears: an armed passive agent under a
// connected but silent manager trips its switch through Apply, and the next
// traffic clears the trip. It waits on the agent's own calls and acks,
// never on the clock.
func TestPassiveDeadManTripsAndClears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh, ackCh := make(chan *wire.Conn, 1), make(chan wire.Envelope, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		connCh <- c
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindAck {
				ackCh <- env
			}
		}
	}()

	// Apply runs under the agent's lock and must never block: room for the
	// trip's call and the command's.
	applied := make(chan int, 2)
	a, err := New(Config{
		NodeID: 6, ManagerAddrs: []string{ln.Addr().String()},
		SampleEvery: 20 * time.Millisecond, TickEvery: time.Hour,
		Model:   power.TianheNode(),
		Passive: true, MaxLevel: 9, InitialLevel: 7,
		Apply: func(level int) (int, error) {
			applied <- level
			return level, nil
		},
		FailsafeAfter: 5, FailsafeLevel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = a.Run(ctx) }()

	var mconn *wire.Conn
	select {
	case mconn = <-connCh:
	case <-time.After(5 * time.Second):
		t.Fatal("agent never connected")
	}
	select {
	case lvl := <-applied:
		if lvl != 2 || !a.Tripped() || a.Level() != 2 {
			t.Fatalf("silent manager: Apply(%d), tripped=%v level=%d; want the trip to apply failsafe level 2", lvl, a.Tripped(), a.Level())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent manager never tripped the dead-man switch")
	}

	if err := mconn.Send(wire.Envelope{Type: wire.KindCommand, Node: 6, Level: 5, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case ack := <-ackCh:
		if ack.Seq != 9 || ack.Level != 5 || a.Tripped() {
			t.Fatalf("after a command: ack %+v, tripped=%v; want seq 9 acked at level 5 and the trip cleared", ack, a.Tripped())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("command never acked")
	}
}
