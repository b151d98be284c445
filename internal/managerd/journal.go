package managerd

import (
	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/replica"
)

// Crash-recovery journal, backed by internal/replica's Store: a snapshot
// file plus an append-only log of incremental entries. Every control
// cycle that changed something (commanded levels, thresholds, learner
// state) commits one entry — which is also what streams to any connected
// standby follower (daemon.Chassis.Commit). The chassis owns the store's
// lifecycle: it opens it from JournalPath, and compacts and closes it on
// clean shutdown; in between, the store compacts its own log whenever it
// reaches its bound (replica's logMax entries). A restarted manager
// reloads snapshot + valid log prefix, resumes capping immediately
// without a fresh training window, and reconciles agent-reported levels
// against the journaled commands instead of guessing.
//
// The journal is advisory, never load-bearing for safety: a missing,
// truncated or corrupted file falls back to a cold start (the agents'
// dead-man switches keep the cap holding in the meantime), and defective
// state is rejected wholesale rather than partially applied — see
// replica.Open for the exact torn-tail semantics. A snapshot can be
// written at any moment, racing the writers, the senders and the ack path:
// SetNodeLevel records a command on the node's record and in the journal
// mirror before enqueueing the write, and the store serialises appends
// against compaction, so a snapshot can neither persist a superseded level
// nor drop an acked entry committed mid-compaction.

// restoreFromJournal applies a journal snapshot to a freshly constructed
// server (no locking needed; nothing is running yet).
func (s *Server) restoreFromJournal(snap replica.Snapshot) {
	if s.learner != nil && snap.Learner != nil {
		if err := s.learner.Restore(*snap.Learner); err == nil {
			s.thr = s.learner.Thresholds()
			s.plW.Set(float64(s.thr.PL))
			s.phW.Set(float64(s.thr.PH))
			s.trainedG.Set(b2f(s.learner.Trained()))
			s.lifetimePeakW.Set(snap.Learner.LifetimePeakW)
		}
	}
	s.cycleN.Store(int64(snap.SavedAtCycle))
	for _, l := range snap.Levels {
		id := node.ID(l.Node)
		sh := s.nodes.of(id)
		// Journaled commands count as acked at sentCycle zero: as soon as
		// the node reconnects and reports a different level, the
		// reconciliation path reissues the journaled one.
		rec := sh.add(id)
		sh.setCmd(rec, cmdState{issued: true, level: l.Level, acked: true})
		rec.health.state = healthLost
		sh.nLost++
	}
}

// commitJournalCycle closes the cycle in the journal — one incremental
// entry when anything changed — and streams that entry to connected
// followers. Called only from the control-loop goroutine (learner access
// is lock-free by that contract).
func (s *Server) commitJournalCycle(cycleN int, thr power.Thresholds) {
	var ls *power.LearnerState
	if s.learner != nil {
		st := s.learner.State()
		ls = &st
	}
	s.Commit(cycleN, thr, ls)
}
