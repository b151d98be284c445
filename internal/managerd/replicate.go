package managerd

import (
	"time"

	"repro/internal/replica"
	"repro/internal/wire"
)

// Journal replication serving and leased leadership — the manager side of
// internal/replica's high-availability design.
//
// A standby's follower connects like any client and sends KindJournalAck
// carrying the sequence number its copy has reached; serveConn routes it
// here. Streaming itself — synchronous catch-up, gap-free publication,
// ack-driven lag accounting, drop-on-stall — lives in replica.Publisher,
// shared with the federation coordinator's HA; this file keeps only what
// is managerd-specific: epoch fencing, codec negotiation, and leadership.
//
// Leadership: while cfg.Lease is set the server rewrites the lease file
// every lease period. Discovering a higher epoch in the lease — a
// promoted standby claimed it — makes the server depose itself: it stops
// renewing, drops the leadership gauge, closes its listener and sheds
// every agent connection so the fleet redials to the new leader. The
// same self-fencing triggers when any peer (agent hello or follower
// subscribe) reports a higher epoch than ours.

// serveReplica serves one follower connection until it ends. Caller holds
// the serveConn wg slot and closes conn; first is the subscribe frame.
func (s *Server) serveReplica(conn *wire.Conn, first wire.Envelope) {
	if s.epoch > 0 && first.Epoch > s.epoch {
		s.fencedHellos.Inc()
		s.depose()
		return
	}
	// Followers advertise codec support on their subscribe frame; a
	// binary-capable follower gets its journal stream on the fast codec.
	// No reply frame is needed — the read side auto-detects per frame,
	// so enabling the writer is the whole negotiation.
	if s.binaryWanted(&first) {
		conn.EnableBinary()
	}
	s.pub.Serve(conn, first.Seq)
}

// publishEntry fans one committed journal entry out to every subscriber.
func (s *Server) publishEntry(e replica.Entry) {
	s.pub.Publish(e)
}

// refreshReplicaGauges recomputes connected-follower count and worst
// replication lag (in journal entries) for Status and /metrics.
func (s *Server) refreshReplicaGauges() {
	conns, lag := s.pub.Stats()
	s.replicaConnsG.SetInt(int64(conns))
	s.replicaLagG.SetInt(int64(lag))
}

// renewLoop keeps the leadership lease fresh, and self-fences when a
// higher epoch appears in it.
func (s *Server) renewLoop() {
	defer s.wg.Done()
	every := s.cfg.Lease.Period()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			if s.deposed.Load() {
				return
			}
			if st, err := s.cfg.Lease.Read(); err == nil && st.Epoch > s.epoch {
				s.depose()
				return
			}
			_ = s.cfg.Lease.Write(replica.LeaseState{
				Epoch: s.epoch, Holder: s.cfg.LeaseHolder, RenewedAt: time.Now(),
			})
		}
	}
}

// depose self-fences a leader that has been superseded: leadership gauge
// drops, lease renewal stops, the listener closes and every agent
// connection is shed so the fleet redials — and, carrying the new
// leader's epoch in their hellos, refuses us if we ever meet again. The
// server object stays alive (Status and metrics still serve) so
// operators can autopsy a deposed primary.
func (s *Server) depose() {
	if !s.deposed.CompareAndSwap(false, true) {
		return
	}
	s.leaderG.Set(0)
	if s.ln != nil {
		s.ln.Close()
	}
	if s.replicaLn != nil {
		s.replicaLn.Close()
	}
	s.pub.CloseSubs()
	s.shedAgents()
}

// Deposed reports whether this server has fenced itself off after
// discovering a newer leadership epoch.
func (s *Server) Deposed() bool { return s.deposed.Load() }

// Epoch returns the server's leadership epoch (0 = HA off).
func (s *Server) Epoch() uint64 { return s.epoch }
