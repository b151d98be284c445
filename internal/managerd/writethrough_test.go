package managerd

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/proptest"
	"repro/internal/wire"
)

// Tests for write-through (sender.go): a command goes straight onto a link
// that has room, a per-node sender starts only for a link that is backed
// up, and a backed-up link still holds up nobody else. Like the sender
// lifecycle tests they are written to run under -race -count=10.

// dialRedFleet connects agents 0..n-1, each sending one busy sample and
// acking every command it reads; the agents listed in throttled read at
// neverReads' rate and ack nothing. It waits until every sample landed.
func dialRedFleet(t *testing.T, nw *faultnet.Network, srv *Server, n int, throttled ...int) {
	t.Helper()
	slow := map[int]bool{}
	for _, i := range throttled {
		slow[i] = true
		nw.SetClientProfile(uint64(i), neverReads)
	}
	for i := 0; i < n; i++ {
		c := dialFaultAgent(t, nw, uint64(i), 9, 9)
		if err := c.Send(busySample(i, 9)); err != nil {
			t.Fatal(err)
		}
		if slow[i] {
			continue
		}
		go func() {
			for {
				env, err := c.Recv()
				if err != nil {
					return
				}
				if env.Type == wire.KindCommand {
					c.Send(wire.Envelope{Type: wire.KindAck, Node: env.Node, Seq: env.Seq, Level: env.Level})
				}
			}
		}()
	}
	waitFor(t, 10*time.Second, "every sample ingested", func() bool { return srv.SamplesReceived() == int64(n) })
}

// TestRedCycleStartsNoSender: a red cycle floors 64 agents whose links all
// have room, and writes every command through — no per-node sender
// starts, at most FanoutWorkers writer goroutines do — and every agent
// acks. Before write-through the same cycle started 64 senders, one per
// command.
func TestRedCycleStartsNoSender(t *testing.T) {
	const agents = 64
	nw := faultnet.New(11)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, 5*time.Second, power.Thresholds{PL: 1, PH: 2})
	cfg.FanoutWorkers = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	dialRedFleet(t, nw, srv, agents)

	senders, writers := srv.senderStarts.Load(), srv.writerStarts.Load()
	srv.StepCycle()
	if st := srv.Status(); st.RedCycles != 1 || st.DegradeOps != agents {
		t.Fatalf("want one red cycle flooring %d nodes: %+v", agents, st)
	}
	if n := srv.senderStarts.Load() - senders; n != 0 {
		t.Errorf("the red cycle started %d per-node senders, want 0: every link had room", n)
	}
	if n := srv.writerStarts.Load() - writers; n < 1 || n > int64(cfg.FanoutWorkers) {
		t.Errorf("the red cycle started %d writers, want 1..%d", n, cfg.FanoutWorkers)
	}
	waitFor(t, 10*time.Second, "every command acked", func() bool { return srv.UnackedCommands() == 0 })
	for i := 0; i < agents; i++ {
		if got := commandedLevel(srv, node.ID(i)); got != 0 {
			t.Errorf("node %d commanded level %d, want the floor", i, got)
		}
	}
}

// TestWriteThroughIsolatesASlowReader: the same red cycle with one more
// agent that does not read. Its link declines the write, so it — and only
// it — gets a sender, which blocks in its write; every fast agent's ack
// arrives while that write is still blocked, and the cycle's fan-out
// completes only when the blocked write times out.
func TestWriteThroughIsolatesASlowReader(t *testing.T) {
	const (
		agents  = 65
		slow    = 64
		timeout = 2 * time.Second
	)
	nw := faultnet.New(12)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, timeout, power.Thresholds{PL: 1, PH: 2})
	cfg.FanoutWorkers = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	dialRedFleet(t, nw, srv, agents, slow)
	slowConn := currentConn(srv, slow)

	senders := srv.senderStarts.Load()
	fan := srv.cycle()
	waitFor(t, 10*time.Second, "every fast agent's ack", func() bool { return srv.UnackedCommands() == 1 })
	select {
	case <-fan.done:
		t.Fatal("the fan-out completed before the throttled write timed out")
	default:
	}
	slowConn.obMu.Lock()
	blocked := slowConn.obSending
	slowConn.obMu.Unlock()
	if !blocked {
		t.Error("the throttled link's sender is not running while its write should be blocked")
	}
	if n := srv.senderStarts.Load() - senders; n != 1 {
		t.Errorf("the cycle started %d per-node senders, want exactly 1, the throttled link's", n)
	}
	for i := 0; i < slow; i++ {
		if got := commandedLevel(srv, node.ID(i)); got != 0 {
			t.Errorf("node %d commanded level %d, want the floor", i, got)
		}
	}
	awaitFanout(t, fan, "throttled write timing out")
	if st := srv.Status(); st.CommandErrors != 1 {
		t.Errorf("CommandErrors = %d, want 1 (the throttled link's timeout)", st.CommandErrors)
	}
}

// TestRedCycleWritesEveryCommandItself: on one P, a red cycle floors 64
// agents whose links all have room and returns with its fan-out complete
// — every command written through, no per-node sender started — while
// the writers it started have not run yet: the cycle wrote what they had
// not taken itself, so StepCycle finds the fan-out done and does not park
// until they are scheduled.
func TestRedCycleWritesEveryCommandItself(t *testing.T) {
	const agents = 64
	nw := faultnet.New(13)
	t.Cleanup(nw.Close)
	cfg := fanoutConfig(nw, 5*time.Second, power.Thresholds{PL: 1, PH: 2})
	cfg.FanoutWorkers = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	dialRedFleet(t, nw, srv, agents)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	senders := srv.senderStarts.Load()
	fan := srv.cycle()
	fan.q.mu.Lock()
	started, running := fan.q.started, fan.q.running
	fan.q.mu.Unlock()
	select {
	case <-fan.done:
	default:
		t.Fatalf("the cycle returned with %d of its %d commands' slots held: it left them to writers not yet run", fan.pending.Load(), fan.issued.Load())
	}
	if n := fan.issued.Load(); n != agents {
		t.Errorf("the red cycle issued %d commands, want %d", n, agents)
	}
	if n := srv.senderStarts.Load() - senders; n != 0 {
		t.Errorf("the red cycle started %d per-node senders, want 0: every link had room", n)
	}
	if started < 1 || running != started {
		t.Errorf("the cycle started %d writers and %d are still to run, want ≥ 1 started and none run yet", started, running)
	}
	waitFor(t, 10*time.Second, "every command acked", func() bool { return srv.UnackedCommands() == 0 })
	for i := 0; i < agents; i++ {
		if got := commandedLevel(srv, node.ID(i)); got != 0 {
			t.Errorf("node %d commanded level %d, want the floor", i, got)
		}
	}
}

// recordConn is a link that always has room and keeps what was written.
type recordConn struct {
	sinkConn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *recordConn) TryWrite(p []byte) (int, error) { return c.Write(p) }

// TestOlderCommandNeverOvertakesNewer: two of a cycle's writers can carry
// commands for one node — a re-send queued by upkeep, the cycle's own
// command after it — and deliver them in either order. The older one,
// arriving second, is dropped as superseded rather than written after
// the newer, which would leave the agent at a level nobody commands; a
// re-send of the newest itself is still written.
func TestOlderCommandNeverOvertakesNewer(t *testing.T) {
	srv := idleServer(t)
	rc := &recordConn{}
	ac := &agentConn{id: 3, conn: wire.NewConn(rc), maxLevel: 9}
	srv.deliver(ac, pendingCmd{level: 0, seq: 9}, true)
	srv.deliver(ac, pendingCmd{level: 5, seq: 5}, true)
	srv.deliver(ac, pendingCmd{level: 0, seq: 9}, true)
	var seqs []uint64
	in := wire.NewConn(sinkReader{&rc.buf})
	for {
		env, err := in.Recv()
		if err != nil {
			break
		}
		seqs = append(seqs, env.Seq)
	}
	if !slices.Equal(seqs, []uint64{9, 9}) {
		t.Errorf("the link carried commands %v, want [9 9]: the older command overtook the newer", seqs)
	}
	if n := srv.coalesced.Value(); n != 1 {
		t.Errorf("coalesced_cmds = %d, want 1 (the older command, dropped)", n)
	}
	if !outboxIdle(ac) || srv.senderStarts.Load() != 0 {
		t.Error("a link with room got a sender")
	}
}

// sinkReader is a buffer read as a stream; closing it does nothing.
type sinkReader struct{ *bytes.Buffer }

func (sinkReader) Close() error { return nil }

// sinkConn is a stream that takes every write at once and never delivers
// anything to read: a link that always has room.
type sinkConn struct{}

func (sinkConn) Read([]byte) (int, error)       { select {} }
func (sinkConn) Write(p []byte) (int, error)    { return len(p), nil }
func (sinkConn) TryWrite(p []byte) (int, error) { return len(p), nil }
func (sinkConn) Close() error                   { return nil }

// unackedWalk counts commands in flight the way UnackedCommands did before
// the tally: by visiting every record.
func unackedWalk(s *Server) int {
	n := 0
	for _, sh := range s.nodes.shards {
		sh.mu.Lock()
		for _, chunk := range sh.chunks {
			for k := range chunk {
				n += chunk[k].cmd.inFlight()
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestUnackedTallyEqualsWalk: through a seeded random sequence of
// commands, acks (matching, stale and repeated), retry and reconcile
// sweeps, disconnects, reconnects and journal restores, the per-shard
// in-flight tally UnackedCommands reads always equals a walk of the
// records.
func TestUnackedTallyEqualsWalk(t *testing.T) {
	const nodes = 12
	proptest.MustCheck(t, "unacked tally", proptest.Config{NumTrials: 40, Seed: 37}, func(g *proptest.Generator) error {
		cfg := Config{
			Model: power.TianheNode(), Policy: policy.MPCC{},
			Tg: 3, ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
			CommandTimeout: time.Second, HeartbeatEvery: -1, Shards: 4,
		}
		cfg.JournalPath = filepath.Join(t.TempDir(), "journal")
		srv, err := New(cfg)
		if err != nil {
			return err
		}
		defer srv.Stop()
		connect := func(id node.ID, level int) {
			sh := srv.nodes.of(id)
			sh.mu.Lock()
			rec := sh.nodes[id]
			if rec == nil {
				rec = sh.add(id)
			}
			rec.ac = &agentConn{id: id, conn: wire.NewConn(sinkConn{}), maxLevel: 9}
			rec.last, rec.lastAt = manager.AgentReading{ID: id, Level: level, MaxLevel: 9}, time.Now()
			sh.mu.Unlock()
		}
		for id := node.ID(0); id < nodes; id++ {
			connect(id, 9)
		}
		for step := 0; step < 80; step++ {
			id := node.ID(g.Intn(nodes))
			sh := srv.nodes.of(id)
			var what string
			switch op := g.Intn(7); op {
			case 0, 1:
				what = "command"
				_ = actuator{s: srv}.SetNodeLevel(id, g.Intn(10))
			case 2:
				what = "ack"
				sh.mu.Lock()
				rec := sh.nodes[id]
				seq, ac := rec.cmd.seq, rec.ac
				sh.mu.Unlock()
				if g.Bool(0.2) {
					seq++ // stale or future: matches nothing
				}
				if ac == nil {
					ac = &agentConn{id: id, maxLevel: 9}
				}
				srv.ack(sh, rec, ac, seq, g.Intn(10))
			case 3:
				what = "sweep"
				// Some nodes drift off their commanded level, so the
				// sweep reconciles as well as retries.
				for k := 0; k < 3; k++ {
					d := node.ID(g.Intn(nodes))
					dsh := srv.nodes.of(d)
					dsh.mu.Lock()
					dsh.nodes[d].last.Level = g.Intn(10)
					dsh.nodes[d].lastAt = time.Now()
					dsh.mu.Unlock()
				}
				srv.cycleMu.Lock()
				srv.sweep(int(srv.cycleN.Add(int64(1+g.Intn(2)))), time.Now(), time.Time{})
				srv.cycleMu.Unlock()
			case 4:
				what = "disconnect"
				sh.mu.Lock()
				sh.nodes[id].ac = nil
				sh.mu.Unlock()
			case 5:
				what = "reconnect"
				connect(id, g.Intn(10))
			case 6:
				what = "journal restore"
				_ = srv.journal.Compact()
				restored, err := New(cfg)
				if err != nil {
					return err
				}
				got, want := restored.UnackedCommands(), unackedWalk(restored)
				restored.journal.Close()
				if got != want || got != 0 {
					return fmt.Errorf("step %d, journal restore: tally %d, walk %d; a restored command is acked", step, got, want)
				}
			}
			if got, want := srv.UnackedCommands(), unackedWalk(srv); got != want {
				return fmt.Errorf("step %d, %s on node %d: tally %d, walk %d", step, what, id, got, want)
			}
		}
		return nil
	})
}
