package managerd

import (
	"sync"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/units"
)

// Sharded node state. Before this existed, one Server.mu serialised every
// toucher of the per-node state: each agent's sample-reader goroutine, the
// ack path, the control loop's sweep and the status endpoint. At 128 nodes
// that mutex is invisible; at 1024+ it is the control plane's hottest
// lock. The store splits the node records into power-of-two shards keyed
// by a mixed node ID, so the id→shard mapping is stable and everything
// about one node — connection, newest command, health — is one nodeRec
// behind one shard mutex, updated atomically together.
//
// Lock ordering: a shard mutex may be taken while holding no other lock,
// or under Server.mgrMu (the control loop). An agentConn's outbox mutex
// (sender.go) is strictly below every shard mutex: code holding an outbox
// lock must never touch a shard. Shards are never locked pairwise, so
// shard order does not matter.

// nodeRec is everything the manager knows about one node: the paper's
// per-node state, i.e. its set membership (§II.A, health) and the newest
// level Algorithm 1 commanded (§III.B, cmd). It is made by the node's
// first hello (noteConnect) or by the journal restore — both through
// shard.add — and never deleted or moved: a disconnected node stays in the
// table as lost, and its reconnect history survives redials, which is what
// makes flap detection possible — so the table holds one record per
// distinct node ID ever seen or journalled. All access under the owning
// shard's mutex, except est and estCycle: those belong to the cycle (its
// sweep workers, under cycleMu).
type nodeRec struct {
	id node.ID
	ac *agentConn // nil while the node is away

	// The freshest reading of the current connection, seeded by its hello:
	// meaningful while ac != nil. It lives here and not on the agentConn so
	// the sweep reads a node in one place. lastEpoch stamps which external
	// sense epoch the reading arrived in (zero outside any epoch, e.g. the
	// hello seed); the external cycle's sweep filters on it instead of
	// wall-clock staleness.
	last      manager.AgentReading
	lastAt    time.Time
	lastEpoch uint64

	cmd    cmdState
	health healthRec
	// est is the estimate from estCycle, the last cycle the node was a
	// candidate in: PrevEst for the cycle after it and for no other.
	est      units.Watts
	estCycle int
}

// shard is one slice of the node table, with everything about its nodes
// guarded by its own mutex.
type shard struct {
	mu sync.Mutex
	// chunks is the storage, in registration order: append-only, so a
	// *nodeRec stays valid for good, and dense, so a walk streams through
	// memory instead of chasing one pointer per node. nodes is the id →
	// record index over it, for lookups only; every walk ranges chunks.
	chunks [][]nodeRec
	nodes  map[node.ID]*nodeRec

	// Cached tallies, guarded by mu. The health counts and drifted are
	// recomputed by every cycle's sweep; noteConnect and the journal
	// restore adjust the health counts incrementally in between. They
	// exist so refreshGauges — and therefore Status and every /metrics
	// scrape — reads O(shards) cached integers instead of re-walking
	// every node record per call.
	nHealthy int
	nStale   int
	nLost    int
	nQuar    int
	drifted  int
	// unacked counts the shard's commands in flight (issued, not acked),
	// kept in step by every change to a record's cmd (setCmd, the ack, a
	// reconcile), so UnackedCommands reads O(shards) integers.
	unacked int

	// Registered agent connections, counted at register and teardown —
	// the same O(shards) cache idea, feeding the agents gauge.
	nConns int
}

// conns lists the shard's registered connections into buf's storage, so
// the caller can ping or close them without holding the shard lock.
func (sh *shard) conns(buf []*agentConn) []*agentConn {
	buf = buf[:0]
	sh.mu.Lock()
	for _, chunk := range sh.chunks {
		for k := range chunk {
			if ac := chunk[k].ac; ac != nil {
				buf = append(buf, ac)
			}
		}
	}
	sh.mu.Unlock()
	return buf
}

// setCmd replaces rec's command state, keeping the in-flight tally in
// step. Caller holds sh.mu.
func (sh *shard) setCmd(rec *nodeRec, cs cmdState) {
	sh.unacked += cs.inFlight() - rec.cmd.inFlight()
	rec.cmd = cs
}

// maxChunk caps a chunk at 256 records (≈ 62 KiB).
const maxChunk = 256

// add makes id's record, the only place one is made, and indexes it. A
// full last chunk is never grown (that would move its records): a new one
// is started, of 4 records and doubling up to maxChunk, so a shard of a
// few nodes does not pay for a large one's chunk. Caller holds sh.mu (or
// is New) and has checked id has no record.
func (sh *shard) add(id node.ID) *nodeRec {
	last := len(sh.chunks) - 1
	if last < 0 || len(sh.chunks[last]) == cap(sh.chunks[last]) {
		size := 4
		if last >= 0 {
			size = min(2*cap(sh.chunks[last]), maxChunk)
		}
		sh.chunks = append(sh.chunks, make([]nodeRec, 0, size))
		last++
	}
	sh.chunks[last] = append(sh.chunks[last], nodeRec{id: id})
	rec := &sh.chunks[last][len(sh.chunks[last])-1]
	sh.nodes[id] = rec
	return rec
}

// store is the sharded node-state table.
type store struct {
	shards []*shard
	mask   uint64
}

// newStore builds a store with n shards, rounded up to a power of two.
func newStore(n int) *store {
	size := 1
	for size < n {
		size <<= 1
	}
	st := &store{shards: make([]*shard, size), mask: uint64(size - 1)}
	for i := range st.shards {
		st.shards[i] = &shard{nodes: make(map[node.ID]*nodeRec)}
	}
	return st
}

// mix scrambles a node ID so dense sequential IDs (the common case: nodes
// numbered 0..N-1) spread uniformly across shards instead of striping.
// Same splitmix64 finaliser as the sim and faultnet RNG streams.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// of returns the shard owning id.
func (st *store) of(id node.ID) *shard {
	return st.shards[mix(uint64(id))&st.mask]
}
