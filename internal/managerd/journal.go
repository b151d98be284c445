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
// standby follower (daemon.Chassis.Commit) — and every JournalEvery cycles (plus
// once on clean shutdown) the log is compacted into the snapshot. A
// restarted manager reloads snapshot + valid log prefix, resumes capping
// immediately without a fresh training window, and reconciles
// agent-reported levels against the journaled commands instead of
// guessing.
//
// The journal is advisory, never load-bearing for safety: a missing,
// truncated or corrupted file falls back to a cold start (the agents'
// dead-man switches keep the cap holding in the meantime), and defective
// state is rejected wholesale rather than partially applied — see
// replica.Open for the exact torn-tail semantics.

// openJournal resolves the server's journal store: an externally built
// replica (the promoted-standby handoff), the on-disk store at
// JournalPath, or a memory-only store so the replication and level
// mirror paths never need nil checks. Open errors degrade to memory —
// the journal must never stop the daemon from starting.
func openJournal(cfg Config) *replica.Store {
	if cfg.Journal != nil {
		return cfg.Journal
	}
	st, err := replica.Open(cfg.JournalPath)
	if err != nil {
		st, _ = replica.Open("")
	}
	return st
}

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

// writeJournal compacts the journal (snapshot rewritten from the level
// mirror, log truncated). Safe to race the writers, the senders and the
// ack path: SetNodeLevel records a command on the node's record and in the
// journal mirror before enqueueing the write, and the store serialises appends
// against compaction, so a snapshot can neither persist a superseded
// level nor drop an acked entry committed mid-compaction.
func (s *Server) writeJournal() {
	if wrote, err := s.journal.Compact(); wrote && err == nil {
		s.journalWrites.Inc()
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
