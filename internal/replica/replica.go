// Package replica is the daemons' high-availability layer: the journal
// Store keeps the crash-recovery state as a snapshot plus an ordered log
// of incremental entries, a file Lease carries leadership between a
// primary and its standbys, a Publisher streams a leader's journal to its
// followers and a Follower mirrors it into a local Store over the wire
// (KindJournalAppend/KindJournalAck frames). Promoting that copy into a
// new leader is internal/daemon's WarmStandby.
//
// The store is the piece every other part leans on. One mutex serialises
// appends against snapshot compaction, and snapshots are built from the
// store's own level mirror — the state the appends themselves maintain —
// stamped with the last sequence number they cover. An append therefore
// lands either before a racing snapshot (and is inside it) or after (and
// is in the fresh log the compaction leaves behind); it can never be
// dropped between the two. A store opened with a path bounds its own log:
// once it holds logMax entries, the append that made it so compacts it,
// whether the entry was committed here or applied from a leader. Loading
// is snapshot + longest valid log prefix: a torn tail, a duplicate
// sequence number or a gap ends the replay at the last fully applied
// entry, never mid-entry.
package replica

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"repro/internal/power"
)

// ringMax caps the count of recent entries kept for follower resume. The
// ring is bounded first by the levels it carries (see ringPushLocked), so
// the cap only binds on level-free entries — thresholds or learner state.
const ringMax = 512

// logMax caps the entries a path-backed store's append log holds: the
// append that brings it to logMax compacts the store. Entries come at most
// one per control cycle, so this is also the most cycles a restart
// replays.
const logMax = 60

// ErrGap reports an entry whose sequence number is not the next expected
// one — the follower must resubscribe from its current sequence so the
// leader can replay or reset it.
var ErrGap = errors.New("replica: entry gap, resubscribe from current sequence")

// Level records the last commanded power level for one node.
type Level struct {
	Node  int `json:"node"`
	Level int `json:"level"`
}

// Snapshot is the full journal state at one point: everything a restarted
// or promoted manager cannot re-derive from the fleet. LastSeq stamps the
// newest log entry the snapshot covers, which is what makes compaction
// and resume unambiguous.
type Snapshot struct {
	Epoch        uint64              `json:"epoch,omitempty"`
	LastSeq      uint64              `json:"last_seq,omitempty"`
	SavedAtCycle int                 `json:"saved_at_cycle"`
	ThrPLW       float64             `json:"pl_w,omitempty"`
	ThrPHW       float64             `json:"ph_w,omitempty"`
	Learner      *power.LearnerState `json:"learner,omitempty"`
	Levels       []Level             `json:"levels"`
}

// Entry is one incremental journal append: the levels that changed this
// cycle, plus the thresholds and learner state when they moved. A Reset
// entry instead carries a whole snapshot — the leader sends one to a
// follower too far behind the ring to catch up incrementally.
type Entry struct {
	Seq     uint64              `json:"seq"`
	Epoch   uint64              `json:"epoch,omitempty"`
	Cycle   int                 `json:"cycle,omitempty"`
	Levels  []Level             `json:"levels,omitempty"`
	ThrPLW  float64             `json:"pl_w,omitempty"`
	ThrPHW  float64             `json:"ph_w,omitempty"`
	Learner *power.LearnerState `json:"learner,omitempty"`
	Reset   *Snapshot           `json:"reset,omitempty"`

	raw []byte // the entry's JSON once a log line encoded it; never in the ring
}

// Store is the journal: a level mirror plus thresholds/learner state,
// persisted (when opened with a path) as an atomic snapshot file and an
// append-only JSONL log beside it. All methods are safe for concurrent
// use; the store's mutex is a leaf lock — it never takes another.
type Store struct {
	mu        sync.Mutex
	path      string // snapshot path; "" = memory-only (or closed)
	logPath   string
	logF      *os.File
	logN      int    // entries appended to the log since the last compaction
	onCompact func() // called after each snapshot written; see OnCompact

	seq     uint64
	epoch   uint64
	cycle   int
	plW     float64
	phW     float64
	learner *power.LearnerState
	// The level mirror: slot maps a node to its index in levels, dense and
	// in the order nodes were first recorded. dirty lists the slots changed
	// since the last committed entry, each once (pending marks them), in
	// the order they first changed.
	slot    map[int]int
	levels  []Level
	pending []bool
	dirty   []int
	ring    []Entry // contiguous recent entries ending at seq
	ringLvl int     // levels carried by the ring's entries
}

// Open loads (or creates) a store at path; "" builds a memory-only store
// (a follower's warm copy, or a manager journalling nowhere). A missing,
// truncated or corrupted snapshot cold-starts silently — the journal is
// advisory, never load-bearing for safety — and the log is replayed up to
// its longest valid prefix. The loaded state is then re-persisted
// compactly, clearing torn tails and duplicates, so the append log always
// starts empty after Open.
func Open(path string) (*Store, error) {
	s := &Store{path: path, slot: map[int]int{}}
	if path == "" {
		return s, nil
	}
	s.logPath = path + ".log"
	if snap, err := readSnapshotFile(path); err == nil {
		s.adoptSnapshotLocked(snap)
	}
	replayLog(s, s.logPath)
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadState loads the state a store at path would open with — snapshot
// plus valid log prefix — without touching the files. Unlike Open it
// propagates a snapshot defect as an error, so tests and tools can tell a
// rejected journal from an empty one.
func ReadState(path string) (Snapshot, error) {
	snap, err := readSnapshotFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	s := &Store{slot: map[int]int{}}
	s.adoptSnapshotLocked(snap)
	replayLog(s, path+".log")
	return s.snapshotLocked(), nil
}

// Close flushes nothing (appends are written through) and releases the
// log file handle. The store keeps serving its state from memory but
// writes nothing from then on, Compact included. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.path = ""
	if s.logF == nil {
		return nil
	}
	err := s.logF.Close()
	s.logF = nil
	return err
}

// Persistent reports whether the store writes to disk: it was opened with
// a path and has not been closed.
func (s *Store) Persistent() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.path != ""
}

// OnCompact has fn called after every snapshot the store writes from now
// on — its own log-bound compactions, a Reset's and Compact's — under the
// store's lock, so fn must not call back into the store.
func (s *Store) OnCompact(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCompact = fn
}

// Seq returns the newest applied sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Epoch returns the leadership epoch stamped on new entries.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetEpoch raises the epoch stamped on subsequent entries and snapshots.
// Lowering is ignored: epochs are monotonic across a store's lifetime.
func (s *Store) SetEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.epoch {
		s.epoch = e
	}
}

// SetLevel records the newest commanded level for a node in the mirror.
// It only marks state; the change is persisted and published by the next
// CommitCycle. Callers may hold their own locks around it (managerd calls
// it under a shard mutex) — the store mutex is a leaf.
func (s *Store) SetLevel(nodeID, level int) {
	if nodeID < 0 || level < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.slot[nodeID]
	switch {
	case !ok:
		i = s.addSlotLocked(Level{Node: nodeID, Level: level})
	case s.levels[i].Level == level:
		return
	default:
		s.levels[i].Level = level
	}
	if !s.pending[i] {
		s.pending[i] = true
		s.dirty = append(s.dirty, i)
	}
}

// CommitCycle closes one control cycle: if any level changed since the
// last commit, or the thresholds or learner state moved, it appends one
// entry covering the delta and returns it for publication to followers.
// With nothing changed it only advances the cycle watermark and returns
// false — quiet green stretches cost no journal writes.
func (s *Store) CommitCycle(cycle int, plW, phW float64, learner *power.LearnerState) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cycle = cycle
	var e Entry
	changed := false
	if len(s.dirty) > 0 {
		// The dirtied slots in the order they first changed: each node
		// once, no sort.
		e.Levels = make([]Level, len(s.dirty))
		for k, i := range s.dirty {
			e.Levels[k] = s.levels[i]
			s.pending[i] = false
		}
		s.dirty = s.dirty[:0]
		changed = true
	}
	if plW > 0 && (plW != s.plW || phW != s.phW) {
		e.ThrPLW, e.ThrPHW = plW, phW
		s.plW, s.phW = plW, phW
		changed = true
	}
	if learner != nil && (s.learner == nil || *s.learner != *learner) {
		l := *learner
		e.Learner = &l
		s.learner = &l
		changed = true
	}
	if !changed {
		return Entry{}, false
	}
	s.seq++
	e.Seq, e.Epoch, e.Cycle = s.seq, s.epoch, cycle
	s.appendLineLocked(&e)
	s.ringPushLocked(e)
	return e, true
}

// ApplyRemote applies one replicated entry on a follower. Duplicates
// (seq at or below the local head) are skipped silently so a resumed
// stream can overlap; a gap returns ErrGap and the caller resubscribes.
// A Reset entry replaces the whole state with the carried snapshot.
func (s *Store) ApplyRemote(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Reset != nil {
		if err := validateSnapshot(*e.Reset); err != nil {
			return err
		}
		s.adoptSnapshotLocked(*e.Reset)
		if e.Seq > s.seq {
			s.seq = e.Seq
		}
		if e.Epoch > s.epoch {
			s.epoch = e.Epoch
		}
		if s.path != "" {
			return s.compactLocked()
		}
		return nil
	}
	if e.Seq <= s.seq {
		return nil
	}
	if e.Seq != s.seq+1 {
		return ErrGap
	}
	if err := validateEntry(e); err != nil {
		return err
	}
	s.applyEntryLocked(e)
	s.appendLineLocked(&e)
	s.ringPushLocked(e)
	return nil
}

// EntriesSince returns the entries after seq when the in-memory ring
// still covers them (ok=true, possibly empty when the follower is caught
// up); ok=false means the follower needs a Reset: it is too far behind, or
// past our head, holding entries this store never had.
func (s *Store) EntriesSince(seq uint64) ([]Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.seq {
		return nil, seq == s.seq
	}
	need := s.seq - seq
	if uint64(len(s.ring)) < need {
		return nil, false
	}
	tail := s.ring[len(s.ring)-int(need):]
	if tail[0].Seq != seq+1 {
		return nil, false
	}
	out := make([]Entry, len(tail))
	copy(out, tail)
	return out, true
}

// ResetEntry builds the full-state catch-up entry for a follower the ring
// cannot serve, stamped with the current head sequence.
func (s *Store) ResetEntry() Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshotLocked()
	return Entry{Seq: s.seq, Epoch: s.epoch, Reset: &snap}
}

// State returns a copy of the full journal state.
func (s *Store) State() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// Empty reports whether the store holds no restorable state.
func (s *Store) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq == 0 && s.cycle == 0 && len(s.levels) == 0 && s.learner == nil
}

// Compact rewrites the snapshot from the mirror (stamped with the head
// sequence) and truncates the log. Because it runs under the same mutex
// as CommitCycle and ApplyRemote, an append racing it lands either before
// the snapshot (included in it) or after (written to the fresh log) —
// never dropped. A memory-only or closed store has nothing to write.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	return s.compactLocked()
}

// ---- internals (all require s.mu held, except the pure file readers) ----

// addSlotLocked gives l's node the next slot of the mirror, clean, and
// returns it.
func (s *Store) addSlotLocked(l Level) int {
	i := len(s.levels)
	s.slot[l.Node] = i
	s.levels = append(s.levels, l)
	s.pending = append(s.pending, false)
	return i
}

// snapshotLocked copies the state out; a snapshot's levels are sorted by
// node.
func (s *Store) snapshotLocked() Snapshot {
	levels := slices.Clone(s.levels)
	if levels == nil {
		levels = []Level{}
	}
	slices.SortFunc(levels, byNode)
	var learner *power.LearnerState
	if s.learner != nil {
		c := *s.learner
		learner = &c
	}
	return Snapshot{
		Epoch: s.epoch, LastSeq: s.seq, SavedAtCycle: s.cycle,
		ThrPLW: s.plW, ThrPHW: s.phW, Learner: learner, Levels: levels,
	}
}

func (s *Store) adoptSnapshotLocked(snap Snapshot) {
	s.slot = make(map[int]int, len(snap.Levels))
	s.levels, s.pending, s.dirty = nil, nil, nil
	for _, l := range snap.Levels {
		s.addSlotLocked(l)
	}
	s.ring, s.ringLvl = nil, 0 // history before a snapshot is not replayable onto it
	s.seq = snap.LastSeq
	if snap.Epoch > s.epoch {
		s.epoch = snap.Epoch
	}
	s.cycle = snap.SavedAtCycle
	s.plW, s.phW = snap.ThrPLW, snap.ThrPHW
	s.learner = nil
	if snap.Learner != nil {
		c := *snap.Learner
		s.learner = &c
	}
}

func (s *Store) applyEntryLocked(e Entry) {
	for _, l := range e.Levels {
		i, ok := s.slot[l.Node]
		if !ok {
			s.addSlotLocked(l)
			continue
		}
		s.levels[i].Level = l.Level
		if s.pending[i] {
			// Applied from the leader: no longer this store's own change.
			s.pending[i] = false
			s.dirty = slices.DeleteFunc(s.dirty, func(d int) bool { return d == i })
		}
	}
	if e.ThrPLW > 0 {
		s.plW, s.phW = e.ThrPLW, e.ThrPHW
	}
	if e.Learner != nil {
		c := *e.Learner
		s.learner = &c
	}
	if e.Cycle > 0 {
		s.cycle = e.Cycle
	}
	s.seq = e.Seq
	if e.Epoch > s.epoch {
		s.epoch = e.Epoch
	}
}

// appendLineLocked writes one entry to the log and keeps the line's bytes
// on e, so publishing it encodes nothing again, then compacts once the log
// holds logMax entries. Write and compaction errors are dropped: the
// journal is advisory, a torn line only truncates the replayable prefix at
// the next load, and a failed compaction is retried logMax entries later.
func (s *Store) appendLineLocked(e *Entry) {
	if s.logF == nil {
		return
	}
	b, err := e.encode()
	if err != nil {
		return
	}
	e.raw = b
	_, _ = s.logF.Write(append(b, '\n'))
	if s.logN++; s.logN%logMax == 0 {
		_ = s.compactLocked()
	}
}

// ringPushLocked appends e, then drops the oldest entries while the ring
// carries more levels than the mirror holds — past that, the Reset a
// follower gets instead carries each level once and is no larger than the
// replay — or more than ringMax entries. The newest entry always stays.
func (s *Store) ringPushLocked(e Entry) {
	e.raw = nil
	s.ring = append(s.ring, e)
	s.ringLvl += len(e.Levels)
	drop := 0
	for n := len(s.ring); n-drop > 1 && (s.ringLvl > len(s.levels) || n-drop > ringMax); drop++ {
		s.ringLvl -= len(s.ring[drop].Levels)
	}
	// Shift in place: the array keeps its capacity, so a steady ring
	// allocates nothing, and Delete zeroes the vacated tail.
	s.ring = slices.Delete(s.ring, 0, drop)
}

// encode returns the entry's JSON, marshalling only if no log line has.
func (e Entry) encode() ([]byte, error) {
	if e.raw != nil {
		return e.raw, nil
	}
	return json.Marshal(e)
}

func byNode(a, b Level) int { return cmp.Compare(a.Node, b.Node) }

// compactLocked writes the mirror as the snapshot (atomic tmp+rename) and
// restarts the log empty.
func (s *Store) compactLocked() error {
	snap := s.snapshotLocked()
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("replica: snapshot marshal: %w", err)
	}
	tmp, err := os.CreateTemp(dirOf(s.path), ".replica-*")
	if err != nil {
		return fmt.Errorf("replica: snapshot temp: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: snapshot write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: snapshot rename: %w", err)
	}
	// Truncate the log only after the snapshot covering it is durable: a
	// crash in between leaves duplicate entries, which replay skips.
	if s.logF != nil {
		s.logF.Close()
	}
	f, err := os.Create(s.logPath)
	if err != nil {
		s.logF = nil
		return fmt.Errorf("replica: log create: %w", err)
	}
	s.logF, s.logN = f, 0
	if s.onCompact != nil {
		s.onCompact()
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// readSnapshotFile loads and validates a snapshot file; any defect
// rejects it wholesale so the caller cold-starts rather than applying a
// partial state.
func readSnapshotFile(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("replica: snapshot decode: %w", err)
	}
	if err := validateSnapshot(snap); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

func validateSnapshot(snap Snapshot) error {
	if snap.SavedAtCycle < 0 {
		return fmt.Errorf("replica: snapshot: negative cycle %d", snap.SavedAtCycle)
	}
	seen := make(map[int]bool, len(snap.Levels))
	for _, l := range snap.Levels {
		if l.Node < 0 || l.Level < 0 {
			return fmt.Errorf("replica: snapshot: invalid level entry %+v", l)
		}
		if seen[l.Node] {
			return fmt.Errorf("replica: snapshot: duplicate node %d", l.Node)
		}
		seen[l.Node] = true
	}
	return nil
}

func validateEntry(e Entry) error {
	for _, l := range e.Levels {
		if l.Node < 0 || l.Level < 0 {
			return fmt.Errorf("replica: entry %d: invalid level %+v", e.Seq, l)
		}
	}
	if e.Cycle < 0 {
		return fmt.Errorf("replica: entry %d: negative cycle", e.Seq)
	}
	return nil
}

// replayLog applies the longest valid prefix of the append log onto s:
// duplicates are skipped, and the first torn line, decode failure,
// validation failure or gap ends the replay — an interrupted append can
// shorten the recovered history but never corrupt it mid-entry.
func replayLog(s *Store, logPath string) {
	f, err := os.Open(logPath)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			return
		}
		if e.Reset != nil {
			if validateSnapshot(*e.Reset) != nil {
				return
			}
			s.adoptSnapshotLocked(*e.Reset)
			if e.Seq > s.seq {
				s.seq = e.Seq
			}
			continue
		}
		if e.Seq <= s.seq {
			continue
		}
		if e.Seq != s.seq+1 || validateEntry(e) != nil {
			return
		}
		s.applyEntryLocked(e)
	}
}
