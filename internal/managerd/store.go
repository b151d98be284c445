package managerd

import (
	"sync"

	"repro/internal/node"
)

// Sharded node state. Before this existed, one Server.mu serialised every
// toucher of the per-node maps: each agent's sample-reader goroutine, the
// ack path, the health scanner, the control loop's collect pass and the
// status endpoint. At 128 nodes that mutex is invisible; at 1024+ it is
// the control plane's hottest lock. The store splits the three per-node
// maps (connection, in-flight command, health record) into power-of-two
// shards keyed by a mixed node ID, so the id→shard mapping is stable and
// all state for one node — connection, command, health — lives behind one
// shard mutex and can be updated atomically together.
//
// Lock ordering: a shard mutex may be taken while holding no other lock,
// or under Server.mgrMu (the control loop). An agentConn's outbox mutex
// (sender.go) is strictly below every shard mutex: code holding an outbox
// lock must never touch a shard. Shards are never locked pairwise, so
// shard order does not matter.

// shard is one slice of the node-state tables, with everything about its
// nodes guarded by its own mutex.
type shard struct {
	mu     sync.Mutex
	agents map[node.ID]*agentConn
	cmds   map[node.ID]*cmdState
	health map[node.ID]*healthRec

	// Cached tallies, guarded by mu. The health counts are recomputed by
	// every updateHealth sweep and adjusted incrementally by noteConnect
	// and the journal restore; drifted is recomputed by each control
	// cycle's collect sweep. They exist so refreshGauges — and therefore
	// Status and every /metrics scrape — reads O(shards) cached integers
	// instead of re-walking every node record per call.
	nHealthy int
	nStale   int
	nLost    int
	nQuar    int
	drifted  int

	// Connected-agent codec tallies, adjusted at connection register,
	// replace and teardown in serveConn — the same O(shards) cache idea
	// as the health counts, feeding the binary_conns/json_conns gauges.
	nBin  int
	nJSON int
}

// conns lists the shard's registered connections into buf's storage, so
// the caller can ping or close them without holding the shard lock.
func (sh *shard) conns(buf []*agentConn) []*agentConn {
	buf = buf[:0]
	sh.mu.Lock()
	for _, ac := range sh.agents {
		buf = append(buf, ac)
	}
	sh.mu.Unlock()
	return buf
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
		st.shards[i] = &shard{
			agents: make(map[node.ID]*agentConn),
			cmds:   make(map[node.ID]*cmdState),
			health: make(map[node.ID]*healthRec),
		}
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
