package managerd

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Per-node outbound senders. The old actuation path wrote commands
// synchronously from the control loop: one agent that stopped draining
// its socket cost the cycle a full CommandTimeout, and N slow nodes cost
// N timeouts back to back — head-of-line blocking exactly where
// Algorithm 1's red-state reaction time matters most. Now every
// connection has a coalescing outbox drained by a sender goroutine of its
// own: the control loop enqueues (O(1), never blocks on the network) and
// the senders write concurrently, so the cycle's actuation cost is bounded
// by the slowest single node, not the sum of the slow ones.
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

// pendingCmd is one level command queued in a node's outbox.
type pendingCmd struct {
	level int
	seq   uint64
	fan   *fanout // fan-out tracker of the issuing cycle; nil outside cycles
}

// enqueueCommand queues pc on ac's outbox, superseding any unsent older
// command. It reports whether the outbox accepted it (false: connection
// mid-teardown) and whether an older command was superseded. The
// superseded command's fan-out slot is released here; its delivery is
// owed to the retry path, not this write.
func (s *Server) enqueueCommand(ac *agentConn, pc pendingCmd) (ok, superseded bool) {
	ac.obMu.Lock()
	if ac.obClosed {
		ac.obMu.Unlock()
		return false, false
	}
	old, had := ac.obCmd, ac.obHas
	ac.obCmd, ac.obHas = pc, true
	s.ensureSender(ac)
	ac.obMu.Unlock()
	if had && old.fan != nil {
		old.fan.complete()
	}
	return true, had
}

// enqueuePing raises the outbox's heartbeat flag; the sender folds it
// into its next write.
func (s *Server) enqueuePing(ac *agentConn) {
	ac.obMu.Lock()
	if !ac.obClosed {
		ac.obPing = true
		s.ensureSender(ac)
	}
	ac.obMu.Unlock()
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
	ac.obCmd, ac.obHas, ac.obPing = pendingCmd{}, false, false
	ac.obMu.Unlock()
	if had && pc.fan != nil {
		pc.fan.complete()
	}
}

// runSender drains one connection's outbox and exits when it is empty,
// writing whatever accumulated (newest command, pending ping) as a single
// deadline-bounded write. A write failure retires the connection — after
// a deadline the stream is mid-message and unrecoverable — and the
// in-flight command stays on the node's record for the retry path.
func (s *Server) runSender(ac *agentConn) {
	defer s.senders.Done()
	for {
		ac.obMu.Lock()
		pc, has, ping := ac.obCmd, ac.obHas, ac.obPing
		ac.obHas, ac.obPing = false, false
		if !has && !ping {
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
		// any expired state before the next write.
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
		default:
			err = ac.conn.Send(wire.Envelope{Type: wire.KindPing})
		}
		if err != nil {
			// Account the failure before releasing the fan-out slot, so a
			// caller unblocked by fan-out completion observes the error
			// counters already settled.
			s.noteSendError(ac)
			ac.conn.Close()
		}
		if has && pc.fan != nil {
			pc.fan.complete()
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

// fanout tracks one control cycle's command fan-out: every command handed
// to a sender holds a slot, and the cycle itself holds one until its
// enqueue phase ends. When the last slot releases, the fan-out is
// complete — every command of the cycle was written or abandoned to the
// retry path — and the latency is recorded. StepCycle blocks on done.
type fanout struct {
	s       *Server
	t0      time.Time
	span    *obs.CycleHandle // issuing cycle's staged span; settle lands here
	pending atomic.Int64
	issued  atomic.Int64 // commands that claimed a slot
	dur     time.Duration
	done    chan struct{}
}

func (s *Server) newFanout(t0 time.Time, span *obs.CycleHandle) *fanout {
	f := &fanout{s: s, t0: t0, span: span, done: make(chan struct{})}
	f.pending.Store(1) // the cycle's own slot, released by finishEnqueue
	return f
}

// add claims a slot for one dispatched command.
func (f *fanout) add() {
	f.pending.Add(1)
	f.issued.Add(1)
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

// finishEnqueue releases the cycle's own slot: all commands this cycle
// will ever issue have been dispatched.
func (f *fanout) finishEnqueue() { f.complete() }
