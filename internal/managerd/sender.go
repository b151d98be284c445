package managerd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Outbound writes: write-through, with a per-node sender for a link that
// is backed up. The old actuation path wrote commands synchronously from
// the control loop: one agent that stopped draining its socket cost the
// cycle a full CommandTimeout, and N slow nodes cost N timeouts back to
// back — head-of-line blocking exactly where Algorithm 1's red-state
// reaction time matters most. The fix was a coalescing outbox per
// connection, drained by a sender goroutine of its own, so the cycle's
// actuation cost is bounded by the slowest single node, not the sum of the
// slow ones.
//
// A sender per command is a goroutine started, run for one 20-byte write
// and torn down, for every command of every red round. Most links are not
// slow, so most commands do not need one: deliver, the one dispatch path
// for cycle commands, upkeep re-sends, external-cycle commands and
// heartbeat pings, first tries a non-blocking write of the whole frame
// (wire.Conn.TrySend) — but only while no sender is running for the link
// and nothing is queued for it, so frames never overtake each other. Only
// a link that cannot take the frame right now gets it parked in its outbox
// and a sender of its own. That sender is unchanged: coalescing,
// deadline-bounded, one per backed-up link, so a throttled or full link
// still blocks nothing but its own sender (TestRedFloorFanoutNotSerialized,
// TestWriteThroughIsolatesASlowReader).
//
// A cycle's commands are written by at most FanoutWorkers − 1 writer
// goroutines of its own (writeQueue), started from its first command, so
// writing overlaps Algorithm 1's actuation loop and a burst of commands is
// written back to back (TestRedCycleStartsNoSender). When the enqueue
// ends, the cycle writes whatever they have not taken yet itself: a
// writer that has been started is not yet running, and on a busy host it
// may not run before the agents the cycle's first commands woke have
// (TestRedCycleWritesEveryCommandItself).
//
// The sender exists only while there is something to write: the enqueue
// that makes an idle outbox non-empty starts it, and it exits when it
// finds the outbox empty, so an idle connection — most of a fleet, most
// of the time — parks no goroutine and holds no stack. Shard-owned
// writers would be fewer still, but one slow reader would stall every
// node sharing its writer: the head-of-line blocking removed above.
//
// The outbox is deliberately one command deep: a newer command for a
// node supersedes an unsent older one (the level to hold is a state, not
// a log — only the newest matters), with supersessions counted in
// CoalescedCmds. A pending heartbeat rides in the same write as a queued
// command via the wire batch frame, so a slow cycle costs one write per
// node regardless of how much the control plane tried to tell it.

// pendingCmd is one level command on its way to a node.
type pendingCmd struct {
	level int
	seq   uint64
	fan   *fanout // fan-out tracker of the issuing cycle; nil outside cycles
}

// release gives up the command's fan-out slot: it was written, or its
// delivery is owed to the retry path.
func (pc pendingCmd) release() {
	if pc.fan != nil {
		pc.fan.complete()
	}
}

// deliver hands one command (cmd set) or one heartbeat ping to ac. It
// writes the frame through when the link is idle and takes it now;
// otherwise the message joins the outbox and ac's sender writes it. A
// command older than one the link already has — two of a cycle's writers
// carried commands for one node, and the newer went first — is dropped as
// superseded, and so is anything for a retired outbox: either way the
// node's record holds the newest command and the retry path owes it.
func (s *Server) deliver(ac *agentConn, pc pendingCmd, cmd bool) {
	ac.obMu.Lock()
	if ac.obClosed || (cmd && pc.seq < ac.obSeq) {
		closed := ac.obClosed
		ac.obMu.Unlock()
		if !closed {
			s.coalesced.Inc()
		}
		pc.release()
		return
	}
	if cmd {
		ac.obSeq = pc.seq
	}
	if !ac.obSending && !ac.obHas && !ac.obPing {
		env := wire.Envelope{Type: wire.KindPing}
		if cmd {
			env = wire.Envelope{Type: wire.KindCommand, Node: int(ac.id), Level: pc.level, Seq: pc.seq}
		}
		if done, err := ac.conn.TrySend(env); done {
			if err == nil && ac.conn.Pending() {
				// The socket took a prefix: the sender writes the rest.
				ac.obFlush = true
				s.ensureSender(ac)
			}
			// The outbox lock is released before the send error touches
			// the shard: it stays strictly below the shard locks.
			ac.obMu.Unlock()
			if err != nil {
				s.noteSendError(ac)
				ac.conn.Close()
			}
			pc.release()
			if err != nil {
				s.retireOutbox(ac)
			}
			return
		}
	}
	if !cmd {
		ac.obPing = true
		s.ensureSender(ac)
		ac.obMu.Unlock()
		return
	}
	old, had := s.enqueueLocked(ac, pc)
	ac.obMu.Unlock()
	if had {
		s.coalesced.Inc()
		old.release()
	}
}

// enqueueLocked puts pc in ac's open outbox, superseding any unsent older
// command, and makes sure a sender is running. It returns the superseded
// command, whose fan-out slot the caller releases: its delivery is owed to
// the retry path, not this write. The caller holds ac.obMu.
func (s *Server) enqueueLocked(ac *agentConn, pc pendingCmd) (old pendingCmd, had bool) {
	old, had = ac.obCmd, ac.obHas
	ac.obCmd, ac.obHas = pc, true
	s.ensureSender(ac)
	return old, had
}

// ensureSender starts ac's sender unless one is already draining the
// outbox. The caller holds ac.obMu and has seen the outbox open, which
// keeps senders.Add ahead of Stop's senders.Wait: Stop closes every outbox
// and waits for every connection's reader, which closes its own before
// exiting, first.
func (s *Server) ensureSender(ac *agentConn) {
	if ac.obSending {
		return
	}
	ac.obSending = true
	s.senders.Add(1)
	s.senderStarts.Add(1)
	if ac.sender == nil {
		ac.sender = func() { s.runSender(ac) }
	}
	go ac.sender()
}

// retireOutbox closes ac's outbox and releases the fan-out slot of the
// command it still held, if any — the teardown half of the sender
// lifecycle, called when the connection dies, is replaced by a redial, or
// the server stops. Idempotent; a sender still running finds the outbox
// empty on its next look and exits.
func (s *Server) retireOutbox(ac *agentConn) {
	ac.obMu.Lock()
	pc, had := ac.obCmd, ac.obHas
	ac.obClosed = true
	ac.obCmd, ac.obHas, ac.obPing, ac.obFlush = pendingCmd{}, false, false, false
	ac.obMu.Unlock()
	if had {
		pc.release()
	}
}

// runSender drains one connection's outbox and exits when it is empty,
// writing whatever accumulated (newest command, pending ping, the tail of
// a frame written through in part) as a single deadline-bounded write. A
// write failure retires the connection — after a deadline the stream is
// mid-message and unrecoverable — and the in-flight command stays on the
// node's record for the retry path.
func (s *Server) runSender(ac *agentConn) {
	defer s.senders.Done()
	for {
		ac.obMu.Lock()
		pc, has, ping, flush := ac.obCmd, ac.obHas, ac.obPing, ac.obFlush
		ac.obHas, ac.obPing, ac.obFlush = false, false, false
		if !has && !ping && !flush {
			// The emptiness check and clearing obSending are one critical
			// section, so "outbox non-empty, no sender" is unreachable: an
			// enqueue lands before this look or starts the next sender.
			ac.obSending = false
			ac.obMu.Unlock()
			return
		}
		ac.obMu.Unlock()

		// Keep the write deadline armed across batches instead of the
		// arm/disarm pair per write: every SetWriteDeadline stops and
		// re-creates a runtime timer, and at fleet scale those timer-heap
		// operations dominate the sender's profile (two per agent per
		// cycle). Re-arming only once more than half the window has
		// burned keeps any single write bounded by CommandTimeout while
		// the steady-state path touches the timer ~never. The deadline
		// left armed between writes is harmless: SetWriteDeadline resets
		// any expired state before the next write, and a write-through
		// that meets an expired one declines to this path.
		now := time.Now()
		if ac.armedUntil.Sub(now) < s.cfg.CommandTimeout/2 {
			ac.armedUntil = now.Add(s.cfg.CommandTimeout)
			_ = ac.conn.SetWriteDeadline(ac.armedUntil)
		}
		cmd := wire.Envelope{Type: wire.KindCommand, Node: int(ac.id), Level: pc.level, Seq: pc.seq}
		var err error
		switch {
		case has && ping:
			err = ac.conn.SendBatch([]wire.Envelope{cmd, {Type: wire.KindPing}})
		case has:
			err = ac.conn.Send(cmd)
		case ping:
			err = ac.conn.Send(wire.Envelope{Type: wire.KindPing})
		default:
			err = ac.conn.Flush()
		}
		if err != nil {
			// Account the failure before releasing the fan-out slot, so a
			// caller unblocked by fan-out completion observes the error
			// counters already settled.
			s.noteSendError(ac)
			ac.conn.Close()
		}
		if has {
			pc.release()
		}
		if err != nil {
			// The next look finds the retired outbox empty and exits.
			s.retireOutbox(ac)
		}
	}
}

// noteSendError accounts one failed outbound write. The error is charged
// to the node's CommandErrors only if ac is still the node's current
// connection: during a reconnect flap the agent may already have redialled,
// and a timeout surfacing on the superseded connection says nothing about
// the fresh one — charging it would mis-attribute a dead epoch's failure
// to a healthy node (and, via health accounting, to whoever reads it).
// Such late failures are counted separately in StaleConnErrors.
func (s *Server) noteSendError(ac *agentConn) {
	sh := s.nodes.of(ac.id)
	sh.mu.Lock()
	rec := sh.nodes[ac.id]
	current := rec != nil && rec.ac == ac
	if current {
		rec.health.sendErrs++
	}
	sh.mu.Unlock()
	if current {
		s.cmdErrs.Inc()
	} else {
		s.staleConnErrs.Inc()
	}
}

// outbound is one command of a cycle, queued for the cycle's writers.
type outbound struct {
	ac *agentConn
	pc pendingCmd
}

// writeQueue carries one cycle's commands to its writers: the actuation
// loop pushes, and up to FanoutWorkers − 1 writer goroutines take whatever
// has accumulated and deliver it back to back; the cycle delivers the rest
// itself when its enqueue ends (close). A writer starts when a command is
// pushed and the cycle has writers left to start — so the first starts
// with the cycle's first command — and leaves when it finds the queue
// empty; it never waits for the cycle, so a cycle that is abandoned
// mid-enqueue strands no goroutine. Once a cycle has started all its
// writers and none is running, its pusher delivers the command itself.
// When the enqueue has ended and the last writer has left, the queue is
// recycled for a later cycle (Server.spareQueue): a steady-state cycle
// allocates no queue, and starting a writer allocates nothing (run is
// bound once).
type writeQueue struct {
	s   *Server
	run func()

	mu      sync.Mutex
	items   []outbound
	next    int  // items[:next] are taken
	closed  bool // the enqueue has ended: no push follows
	started int  // writers started for this cycle
	running int  // writers not yet exited
}

// queue returns a recycled write queue, or a new one.
func (s *Server) queue() *writeQueue {
	if q := s.spareQueue.Swap(nil); q != nil {
		return q
	}
	q := &writeQueue{s: s}
	q.run = q.write
	return q
}

// push queues one command for the cycle's writers, starting one if the
// cycle has any left to start, or else — when no writer is running, so
// none would take it — delivers it on the caller's goroutine.
func (q *writeQueue) push(ac *agentConn, pc pendingCmd) {
	q.mu.Lock()
	switch {
	case !q.closed && q.started < q.s.cfg.FanoutWorkers-1:
		q.started++
		q.running++
		// Counted with the senders, so Stop joins the writers too.
		q.s.senders.Add(1)
		q.s.writerStarts.Add(1)
		go q.run()
		fallthrough
	case !q.closed && q.running > 0:
		q.items = append(q.items, outbound{ac, pc})
		q.mu.Unlock()
	default:
		q.mu.Unlock()
		q.s.deliver(ac, pc, true)
	}
}

// write is one writer: it delivers everything queued and leaves when it
// finds the queue empty.
func (q *writeQueue) write() {
	defer q.s.senders.Done()
	q.mu.Lock()
	q.drainLocked()
	q.running--
	last := q.closed && q.running == 0
	q.mu.Unlock()
	if last {
		q.recycle()
	}
}

// drainLocked delivers everything queued, batch by batch, releasing q.mu
// around each batch's writes. The caller holds q.mu.
func (q *writeQueue) drainLocked() {
	for q.next < len(q.items) {
		// Items below len are not written again until the queue is
		// recycled, which waits for every drainer: they are read unlocked.
		batch := q.items[q.next:]
		q.next = len(q.items)
		q.mu.Unlock()
		for _, o := range batch {
			q.s.deliver(o.ac, o.pc, true)
		}
		q.mu.Lock()
	}
}

// close ends the enqueue. The cycle first delivers on its own goroutine
// whatever its writers have not taken yet — deliver never blocks: a link
// without room gets its outbox and its one sender — so the cycle's
// fan-out never waits for a writer that has been started but not yet
// scheduled (TestRedCycleWritesEveryCommandItself). The queue is recycled
// by whichever of close and the last writer to leave after it comes last.
func (q *writeQueue) close() {
	q.mu.Lock()
	q.drainLocked()
	q.closed = true
	last := q.running == 0
	q.mu.Unlock()
	if last {
		q.recycle()
	}
}

// recycle hands the queue back for a later cycle. It runs once per cycle,
// after the enqueue has ended and the last writer has left.
func (q *writeQueue) recycle() {
	clear(q.items) // drop the connections the queue still points at
	q.items, q.next, q.closed, q.started = q.items[:0], 0, false, 0
	q.s.spareQueue.Store(q)
}

// fanout tracks one control cycle's command fan-out: every command handed
// to its writers holds a slot, and the cycle itself holds one until its
// enqueue phase ends. When the last slot releases, the fan-out is
// complete — every command of the cycle was written, handed to a backed-up
// link's sender and written by it, or abandoned to the retry path — and
// the latency is recorded. StepCycle blocks on done; when every link had
// room, it is closed before StepCycle looks.
type fanout struct {
	s       *Server
	t0      time.Time
	span    *obs.CycleHandle // issuing cycle's staged span; settle lands here
	q       *writeQueue
	pending atomic.Int64
	issued  atomic.Int64 // commands that claimed a slot
	dur     time.Duration
	done    chan struct{}
}

func (s *Server) newFanout(t0 time.Time, span *obs.CycleHandle) *fanout {
	f := &fanout{s: s, t0: t0, span: span, q: s.queue(), done: make(chan struct{})}
	f.pending.Store(1) // the cycle's own slot, released by finishEnqueue
	return f
}

// dispatch claims a slot for one command of the cycle and queues it for
// the cycle's writers.
func (f *fanout) dispatch(ac *agentConn, pc pendingCmd) {
	f.pending.Add(1)
	f.issued.Add(1)
	pc.fan = f
	f.q.push(ac, pc)
}

// complete releases one slot; the last release stamps the latency and
// records the cycle's settle stage (asynchronously — the cycle's span may
// already be closed, which the recorder allows).
func (f *fanout) complete() {
	if f.pending.Add(-1) != 0 {
		return
	}
	f.dur = time.Since(f.t0)
	us := f.dur.Microseconds()
	f.s.lastFanoutMicros.SetInt(us)
	f.s.maxFanoutMicros.Max(float64(us))
	f.span.Stage(obs.StageSettle, f.dur, fmt.Sprintf("cmds=%d", f.issued.Load()))
	close(f.done)
}

// finishEnqueue ends the cycle's enqueue phase — delivering, on the
// cycle's goroutine, whatever its writers have not taken — and releases
// its own slot: all commands this cycle will ever issue have been
// dispatched.
func (f *fanout) finishEnqueue() {
	f.q.close()
	f.complete()
}
