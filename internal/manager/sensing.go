package manager

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/scheduler"
	"repro/internal/units"
	"repro/internal/workload"
)

// AgentReading is one node's sample as delivered by its profiling agent:
// interval counters, the level the node runs at, and the job occupying it.
// Both the in-process Collector and the networked managerd produce these.
type AgentReading struct {
	ID       node.ID
	Level    int
	MaxLevel int
	Delta    procfs.Delta
	Job      workload.JobID // 0 when the node is free
}

// Idle thresholds: a node whose sampled interval shows less CPU activity
// and NIC traffic than these fractions is treated as idle and therefore
// never targeted (§III.B property 4). The sensing path decides idleness
// from counters, not ground truth — the manager has no other view.
const (
	idleCPUUtil = 0.05
	idleNICFrac = 0.02
)

// Builder turns a cycle's agent readings into a policy.Snapshot, keeping
// the previous cycle's estimates so change-based policies can compute
// ΔP^t(J).
//
// Algorithm 1 "is applicable to both heterogeneous and homogeneous
// systems" (§III.B); heterogeneity enters through per-node profile
// models registered with SetNodeModel, with the default model covering
// everything else.
type Builder struct {
	curve   power.Curve
	perNode map[node.ID]power.Curve
	prevEst map[node.ID]units.Watts
	// spareEst is the cycle before's prevEst map, cleared and refilled as
	// this cycle's estimate table so steady state allocates no maps.
	spareEst map[node.ID]units.Watts
}

// NewBuilder creates a snapshot builder whose default power profile model
// is used for every node without a specific registration.
func NewBuilder(model power.Model) *Builder {
	return &Builder{curve: model.Compile(), prevEst: make(map[node.ID]units.Watts), spareEst: make(map[node.ID]units.Watts)}
}

// SetNodeModel registers a node-specific profile model (heterogeneous
// clusters).
func (b *Builder) SetNodeModel(id node.ID, m power.Model) {
	if b.perNode == nil {
		b.perNode = make(map[node.ID]power.Curve)
	}
	b.perNode[id] = m.Compile()
}

// Eval is the per-node sensing formula under the node's own model, Sense on
// the reading's fractions. Concurrent calls are safe once every SetNodeModel
// has returned.
func (b *Builder) Eval(r AgentReading, prevEst units.Watts) policy.NodeState {
	c, ok := b.perNode[r.ID]
	if !ok {
		c = b.curve
	}
	var ns policy.NodeState
	Sense(&ns, c, c.Load(r.Delta), &r, prevEst)
	return ns
}

// Sense writes one reading's policy state into dst: formula (1) at its
// level and one level down, and the idle test, all from f = c.Load(r.Delta)
// derived once (managerd's sweep shares it with its other estimates).
// prevEst is the node's estimate from the previous cycle, 0 if it had none.
// It reads r and writes dst in place, so a caller holding the reading in a
// table and the state in a snapshot copies neither.
func Sense(dst *policy.NodeState, c power.Curve, f power.Load, r *AgentReading, prevEst units.Watts) {
	est := c.At(f, r.Level)
	estLower := est
	if r.Level > 0 {
		estLower = c.At(f, r.Level-1)
	}
	*dst = policy.NodeState{
		ID:       r.ID,
		Level:    r.Level,
		MaxLevel: r.MaxLevel,
		AtLowest: r.Level == 0,
		Idle:     f.CPU < idleCPUUtil && f.NIC < idleNICFrac,
		Est:      est,
		EstLower: estLower,
		PrevEst:  prevEst,
		CPUUtil:  f.CPU,
		Job:      r.Job,
	}
}

// AggregateJobs groups the non-idle candidates by job: members (positions in
// nodes, ascending) and sums in snapshot order, jobs by ascending ID
// (deterministic tie-breaks); PrevPower is 0 unless every member has a
// PrevEst. It looks each member's job up once and lays all jobs' Nodes out
// in one array. Only yellow selection reads jobs; Manager.Cycle fills them.
func AggregateJobs(nodes []policy.NodeState) []policy.JobState {
	var jobs []policy.JobState
	at := make(map[workload.JobID]int)
	of, members := make([]int, len(nodes)), make([]int, len(nodes)) // of[i]: 1 + node i's job index, 0 if none
	for i := range nodes {
		n := &nodes[i]
		if n.Job == 0 || n.Idle {
			continue
		}
		j, ok := at[n.Job]
		if !ok {
			j = len(jobs)
			at[n.Job] = j
			jobs = append(jobs, policy.JobState{ID: n.Job})
		}
		of[i] = j + 1
		js := &jobs[j]
		js.Nodes = members[:len(js.Nodes)+1] // only counts the members until they are laid out below
		js.Power += n.Est
		js.PrevPower += n.PrevEst
		js.Saving += n.Est - n.EstLower
		// Running mean of member utilisation.
		js.Util += (n.CPUUtil - js.Util) / float64(len(js.Nodes))
	}
	for j, off := 0, 0; j < len(jobs); j++ {
		k := len(jobs[j].Nodes)
		jobs[j].Nodes, off = members[off:off:off+k], off+k
	}
	for i, j := range of {
		if j > 0 {
			js := &jobs[j-1]
			js.Nodes = append(js.Nodes, i)
			if nodes[i].PrevEst == 0 {
				js.PrevPower = 0 // P^{t−1}(J) is over the same node set: unknown
			}
		}
	}
	slices.SortFunc(jobs, func(a, b policy.JobState) int { return cmp.Compare(a.ID, b.ID) })
	return jobs
}

// Build assembles the snapshot for one cycle. p is the system power meter
// reading and pl the lower threshold in force.
func (b *Builder) Build(p, pl units.Watts, readings []AgentReading) *policy.Snapshot {
	snap := &policy.Snapshot{P: p, PL: pl, Nodes: make([]policy.NodeState, 0, len(readings))}
	clear(b.spareEst)
	for _, r := range readings {
		ns := b.Eval(r, b.prevEst[r.ID])
		snap.Nodes = append(snap.Nodes, ns)
		b.spareEst[r.ID] = ns.Est
	}
	snap.Jobs = AggregateJobs(snap.Nodes)
	b.prevEst, b.spareEst = b.spareEst, b.prevEst
	return snap
}

// Collector performs in-process sensing over a simulated cluster: it reads
// each candidate node's procfs counters, diffs them against the previous
// cycle, and produces AgentReadings — the exact work a per-node profiling
// agent plus the manager's gather step perform on the real system.
type Collector struct {
	cl    *cluster.Cluster
	sched *scheduler.Scheduler
	prev  map[node.ID]procfs.Snapshot
}

// NewCollector creates a collector over the cluster; sched may be nil when
// no job attribution is available (nodes then sample with Job 0).
func NewCollector(cl *cluster.Cluster, sched *scheduler.Scheduler) *Collector {
	return &Collector{cl: cl, sched: sched, prev: make(map[node.ID]procfs.Snapshot)}
}

// Collect samples every candidate node at virtual time now.
func (c *Collector) Collect(now time.Duration) []AgentReading {
	cand := c.cl.Candidates()
	out := make([]AgentReading, 0, len(cand))
	for _, n := range cand {
		cur := n.Snapshot(now)
		prev, seen := c.prev[n.ID()]
		c.prev[n.ID()] = cur
		var delta procfs.Delta
		if seen {
			if d, err := procfs.Diff(prev, cur); err == nil {
				delta = d
			}
		}
		r := AgentReading{
			ID:       n.ID(),
			Level:    n.Level(),
			MaxLevel: n.Levels() - 1,
			Delta:    delta,
		}
		if c.sched != nil {
			if job := c.sched.JobOn(n.ID()); job != nil {
				r.Job = job.ID()
			}
		}
		out = append(out, r)
	}
	return out
}

// ClusterActuator adapts a cluster to the Actuator interface.
type ClusterActuator struct{ Cluster *cluster.Cluster }

// SetNodeLevel implements Actuator.
func (a ClusterActuator) SetNodeLevel(id node.ID, level int) error {
	n := a.Cluster.Node(id)
	if n == nil {
		return &UnknownNodeError{ID: id}
	}
	return n.SetLevel(level)
}

// UnknownNodeError reports a command addressed to a node the cluster does
// not contain.
type UnknownNodeError struct{ ID node.ID }

func (e *UnknownNodeError) Error() string {
	return fmt.Sprintf("manager: unknown node %d", e.ID)
}
