package harness

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/units"
)

// Capping tree: len(Tiers) levels of fedd coordinators, each over its own
// fault network, above one leaf per path — by default a full harness
// Cluster whose manager dials its parent as a governed cabinet. Every edge
// speaks the same two frames, so depth is len(Tiers) and nothing else. A
// node is addressed by its path of child indices from the root: Coord() is
// the root, Coord(1) row 1, Cabinet(1, 2) that row's third cabinet.

// Tier describes one level of coordinators, root first.
type Tier struct {
	// Fanout is how many children each coordinator of this tier has.
	Fanout int
	// Every is the cycle period (default 50ms). A tier whose Every is an
	// hour or more never ticks inside a run: the builder steps it while its
	// children come up and callers drive it with Tree.Step. StaleAfter is
	// the lost-child threshold (default 3 cycles).
	Every      time.Duration
	StaleAfter time.Duration
	// Breaker caps any single child's grant; FloorW is the per-child
	// weighting floor and lost-child reserve. Zero disables each.
	Breaker units.Watts
	FloorW  units.Watts
	// Grace and Failsafe arm the dead-man switch this tier's children run
	// under (their BudgetGrace/FailsafeBudget); zero takes the defaults.
	Grace    int
	Failsafe power.Thresholds
}

// TreeOptions parametrises a tree. No Tiers is a single ungoverned
// cluster, equivalent to Start.
type TreeOptions struct {
	Tiers []Tier
	// AgentsPerCabinet is each leaf cluster's agent count (default 4).
	AgentsPerCabinet int
	// Budget and PH are the root's global band (default a megawatt one that
	// never caps); a coordinator below divides an even share of it until
	// its first grant. Division applies at every tier (default Proportional).
	Budget   units.Watts
	PH       units.Watts
	Division budget.Division
	// Seed drives every fault network (offset per node).
	Seed int64
	// Cabinet and Coord, when non-nil, mutate the leaf cluster's Options or
	// the coordinator's config at path just before it boots (fault profiles,
	// leases, journals...). The harness owns listeners and parent dials.
	Cabinet func(path []int, o *Options)
	Coord   func(path []int, cfg *fedd.Config)
	// Leaf, when non-nil, builds the leaf at path instead of a Cluster:
	// something that dials its parent through dial, is stopped by stop, and
	// reports through governed whether it runs under a grant (none nil).
	Leaf func(path []int, dial func() (net.Conn, error)) (stop func(), governed func() bool, err error)
}

// treeBootWait bounds each node's wait for its first grant.
var treeBootWait = 30 * time.Second

// Tree is a running capping tree.
type Tree struct {
	Opt   TreeOptions
	t     testing.TB
	nodes []*TreeNode // parents before children, siblings in index order
}

// TreeNode is one node: a coordinator (Server and Net set) or a leaf
// (Cluster set, unless a Leaf hook built it).
type TreeNode struct {
	*fedd.Server                   // the acting coordinator; Restart and AwaitTakeover rebind it
	Net          *faultnet.Network // what this coordinator's children dial
	Cluster      *Cluster
	tr           *Tree
	parent       *TreeNode // nil at the root
	path         []int
	idx          int         // child index under parent: the last path element
	num          int64       // path read as a decimal number: [1, 2] is 12
	up           Tier        // the tier above: this node's dead-man pair
	fanout       int         // children it should see live
	cfg          fedd.Config // as booted, minus the listener
	standbys     int         // started so far
	governed     func() bool // runs under a parent grant
	mu           sync.Mutex
	recs         []scenario.CycleRecord // a leaf cluster's Algorithm-1 cycle trace
}

// StartTree boots the tree root-first, each node waiting for its first
// grant (a leaf for its agents too) before the next boots: a Cluster's
// goroutine-leak baseline is snapshotted at its Start, so its predecessors'
// connection goroutines must all exist by then. Cleanup runs leaf-first.
func StartTree(t testing.TB, opt TreeOptions) *Tree {
	t.Helper()
	if opt.Budget <= 0 {
		opt.Budget = 1e6
	}
	if opt.PH <= 0 {
		opt.PH = opt.Budget * 11 / 10
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	tr := &Tree{Opt: opt, t: t}
	tr.build(nil, nil, power.Thresholds{PL: opt.Budget, PH: opt.PH})
	return tr
}

// build boots the node at path (band is what a coordinator divides before
// its first grant), then everything below it.
func (tr *Tree) build(parent *TreeNode, path []int, band power.Thresholds) {
	t, opt := tr.t, tr.Opt
	t.Helper()
	n := &TreeNode{tr: tr, parent: parent, path: path}
	tr.nodes = append(tr.nodes, n)
	var dial func() (net.Conn, error)
	if parent != nil {
		n.idx, n.up = path[len(path)-1], opt.Tiers[len(path)-1]
		n.num = parent.num*10 + int64(n.idx)
		dial = func() (net.Conn, error) { return parent.Net.Dial(context.Background(), uint64(n.idx)) }
	}
	if len(path) == len(opt.Tiers) {
		leaf := opt.Leaf
		if leaf == nil {
			leaf = n.startCluster
		}
		stop, governed, err := leaf(path, dial)
		if err != nil {
			t.Fatalf("harness: tree leaf %v: %v", path, err)
		}
		t.Cleanup(stop)
		n.governed = governed
		n.awaitFirstGrant()
		return
	}

	tier := opt.Tiers[len(path)]
	if tier.Every <= 0 {
		tier.Every = 50 * time.Millisecond
	}
	n.fanout = tier.Fanout
	n.Net = faultnet.New(n.netSeed())
	t.Cleanup(n.Net.Close)
	n.cfg = fedd.Config{
		Budget:         band.PL,
		PH:             band.PH,
		Division:       opt.Division,
		ControlEvery:   tier.Every,
		StaleAfter:     tier.StaleAfter,
		Breaker:        tier.Breaker,
		FloorW:         tier.FloorW,
		ParentDial:     dial,
		Row:            n.idx,
		BudgetGrace:    n.up.Grace,
		FailsafeBudget: n.up.Failsafe,
	}
	if opt.Coord != nil {
		opt.Coord(path, &n.cfg)
	}
	n.rebind(n.boot(n.cfg))
	t.Cleanup(func() { n.Server.Stop() })
	n.governed = func() bool { return n.Server.Governed() }
	n.awaitFirstGrant()
	share := band.PL / units.Watts(tier.Fanout)
	band = power.Thresholds{PL: share, PH: share * (opt.PH / opt.Budget)}
	for i := 0; i < tier.Fanout; i++ {
		tr.build(n, append(path[:len(path):len(path)], i), band)
	}
}

// boot starts a coordinator for this node over a fresh listener on its
// network — the first boot, a cold restart and a standby promotion alike.
func (n *TreeNode) boot(cfg fedd.Config) (*fedd.Server, error) {
	cfg.Listener = n.Net.Listener()
	return daemon.Boot(fedd.New(cfg))
}

// rebind makes srv the node's acting coordinator, or fails the test.
func (n *TreeNode) rebind(srv *fedd.Server, err error) *fedd.Server {
	n.tr.t.Helper()
	if err != nil {
		n.tr.t.Fatalf("harness: tree coordinator %v: %v", n.path, err)
	}
	n.Server = srv
	return srv
}

// netSeed is this coordinator's fault-network seed: the retired depth-2
// and depth-3 rigs' offsets (root +7777 and +8888, rows +8800+r), continued
// by the same rule so seeded runs replay unchanged.
func (n *TreeNode) netSeed() int64 {
	below := int64(len(n.tr.Opt.Tiers) - len(n.path)) // coordinator tiers from here down
	if n.parent == nil {
		return n.tr.Opt.Seed + 1111*(6+below)
	}
	return n.tr.Opt.Seed + 1100*(7+below) + n.num
}

// startCluster is the default leaf: a governed harness Cluster.
func (n *TreeNode) startCluster(path []int, dial func() (net.Conn, error)) (func(), func() bool, error) {
	opt := n.tr.Opt
	n.tr.t.Helper()
	o := Options{
		Agents:          opt.AgentsPerCabinet,
		Seed:            opt.Seed + 1000*n.num,
		Cabinet:         n.idx,
		BudgetGrace:     n.up.Grace,
		FailsafeBudget:  n.up.Failsafe,
		CoordinatorDial: dial,
		RecordCycle: func(rec scenario.CycleRecord) {
			n.mu.Lock()
			n.recs = append(n.recs, rec)
			n.mu.Unlock()
		},
	}
	if opt.Cabinet != nil {
		opt.Cabinet(path, &o)
	}
	n.Cluster = Start(n.tr.t, o) // registers its own cleanup
	n.Cluster.AwaitAgents(n.Cluster.Opt.Agents, 30*time.Second)
	return func() {}, func() bool { return n.Cluster.Status().Governed }, nil
}

// awaitFirstGrant waits until the node runs under a parent grant, stepping
// a parent that never ticks. A ticking one is left alone: fedd's cycle owns
// the child connections' write side, so stepping beside it is not safe.
func (n *TreeNode) awaitFirstGrant() {
	n.tr.t.Helper()
	if n.parent == nil {
		return
	}
	WaitUntil(n.tr.t, treeBootWait, func() bool {
		if !n.governed() && n.parent.cfg.ControlEvery >= time.Hour {
			n.parent.StepCycle()
		}
		return n.governed()
	}, "tree node %v never went governed by its parent", n.path)
}

// at resolves a path, failing the test on one no node has.
func (tr *Tree) at(path []int) *TreeNode {
	tr.t.Helper()
	for _, n := range tr.nodes {
		if slices.Equal(n.path, path) {
			return n
		}
	}
	tr.t.Fatalf("harness: tree has no node at path %v", path)
	return nil
}

// Coord returns the coordinator at path (none: the root) and Cabinet the
// leaf cluster at path; on a node of the other kind Server or Cluster is nil.
func (tr *Tree) Coord(path ...int) *TreeNode  { tr.t.Helper(); return tr.at(path) }
func (tr *Tree) Cabinet(path ...int) *Cluster { tr.t.Helper(); return tr.at(path).Cluster }

// Cabinets returns every leaf cluster at or under path, in path order.
func (tr *Tree) Cabinets(path ...int) (out []*Cluster) {
	tr.t.Helper()
	tr.at(path)
	for _, n := range tr.nodes {
		if n.Cluster != nil && slices.Equal(n.path[:len(path)], path) {
			out = append(out, n.Cluster)
		}
	}
	return out
}

// Records returns a copy of the leaf cluster at path's Algorithm-1 trace.
func (tr *Tree) Records(path ...int) []scenario.CycleRecord {
	tr.t.Helper()
	n := tr.at(path)
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.recs)
}

// Partition blackholes the edge above the node at path both ways: reports
// and grants stop with neither side seeing an error — pure silence, the
// dead-man case. The node floors itself after its grace window and, if a
// coordinator, keeps granting slices of its failsafe band downward. Heal
// lifts it; the node's next report write or redial re-subscribes it.
func (tr *Tree) Partition(path ...int) { tr.t.Helper(); tr.at(path).cut(true) }
func (tr *Tree) Heal(path ...int)      { tr.t.Helper(); tr.at(path).cut(false) }

func (n *TreeNode) cut(silent bool) {
	n.tr.t.Helper()
	if n.parent == nil {
		n.tr.t.Fatalf("harness: the tree root has no edge above it")
	}
	n.parent.Net.Partition(uint64(n.idx), silent, silent)
}

// AwaitGoverned waits until every tier is granted through: every node
// governed by its parent, every coordinator seeing all its children live.
func (tr *Tree) AwaitGoverned(timeout time.Duration) {
	tr.t.Helper()
	WaitUntil(tr.t, timeout, func() bool {
		for _, n := range tr.nodes {
			live := 0
			if n.Server != nil {
				for _, cs := range n.CabinetStates() {
					if cs.Live {
						live++
					}
				}
			}
			if live != n.fanout || n.parent != nil && !n.governed() {
				return false
			}
		}
		return true
	}, "tree never fully governed (%d tiers)", len(tr.Opt.Tiers))
}

// Step runs one round in every coordinator, root first (tiers that never tick).
func (tr *Tree) Step() {
	for _, n := range tr.nodes {
		if n.Server != nil {
			n.StepCycle()
		}
	}
}

// Restart boots a fresh coordinator over the same configuration and fault
// network — the cold restart after Stop — and rebinds n.Server to it.
func (n *TreeNode) Restart() *fedd.Server { n.tr.t.Helper(); return n.rebind(n.boot(n.cfg)) }

// StartStandby boots a warm standby of this coordinator: a journal
// follower over its fault network plus a lease watcher that, on leader
// death, starts a replacement over the replicated grant journal at a
// fenced-off higher epoch, under the same parent. Requires a Lease (set via
// the Coord hook); missBudget ≤ 0 takes the replica default. Cleanup stops it.
func (n *TreeNode) StartStandby(missBudget int) *daemon.WarmStandby[*fedd.Server] {
	t := n.tr.t
	t.Helper()
	if n.cfg.Lease == nil {
		t.Fatal("harness: StartStandby needs a coordinator Lease (set via the Coord hook)")
	}
	n.standbys++
	holder := fmt.Sprintf("coord-standby-%d", n.standbys)
	h := startStandby(t, n.Net, n.standbys-1, n.cfg.Lease, missBudget, holder, func(p replica.Promotion) (*fedd.Server, error) {
		cfg := n.cfg
		cfg.HA = cfg.HA.Promoted(p, cfg.Lease, holder)
		return n.boot(cfg)
	})
	t.Cleanup(func() { h.Stop() }) // before the node's own: the shutdown is no leader death
	return h
}

// AwaitTakeover blocks until h has promoted a replacement (or fails the
// test after timeout) and rebinds n.Server to it.
func (n *TreeNode) AwaitTakeover(h *daemon.WarmStandby[*fedd.Server], timeout time.Duration) *fedd.Server {
	n.tr.t.Helper()
	return n.rebind(h.Await(timeout))
}
