package policy_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/proptest"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file keeps selection as it was when jobs named their nodes by ID —
// an ID-keyed index of the snapshot per Select, a fresh slice per job and
// an ID set per collection — as the reference the positional policies are
// compared against.

// refJob is a JobState whose Nodes are node IDs.
type refJob struct {
	ID                       workload.JobID
	Nodes                    []node.ID
	Power, PrevPower, Saving units.Watts
	Util                     float64
}

func (j refJob) rate() float64 {
	return policy.JobState{Power: j.Power, PrevPower: j.PrevPower}.RateOfIncrease()
}

type refSnapshot struct {
	P, PL units.Watts
	Nodes []policy.NodeState
	Jobs  []refJob
}

// toRef renames every job member from its position to its ID.
func toRef(s *policy.Snapshot) *refSnapshot {
	r := &refSnapshot{P: s.P, PL: s.PL, Nodes: s.Nodes}
	for _, j := range s.Jobs {
		rj := refJob{ID: j.ID, Power: j.Power, PrevPower: j.PrevPower, Saving: j.Saving, Util: j.Util}
		for _, p := range j.Nodes {
			rj.Nodes = append(rj.Nodes, s.Nodes[p].ID)
		}
		r.Jobs = append(r.Jobs, rj)
	}
	return r
}

func refDegradable(n policy.NodeState) bool { return !n.Idle && !n.AtLowest }

func refIndex(s *refSnapshot) map[node.ID]policy.NodeState {
	idx := make(map[node.ID]policy.NodeState, len(s.Nodes))
	for _, n := range s.Nodes {
		idx[n.ID] = n
	}
	return idx
}

func refDegradableOf(j refJob, idx map[node.ID]policy.NodeState) []node.ID {
	out := make([]node.ID, 0, len(j.Nodes))
	for _, id := range j.Nodes {
		if n, ok := idx[id]; ok && refDegradable(n) {
			out = append(out, id)
		}
	}
	return out
}

func refByPowerDesc(s *refSnapshot) []refJob {
	jobs := append([]refJob(nil), s.Jobs...)
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Power != jobs[b].Power {
			return jobs[a].Power > jobs[b].Power
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs
}

func refSingleJob(s *refSnapshot, key func(refJob) float64) []node.ID {
	idx := refIndex(s)
	best := -math.MaxFloat64
	var bestNodes []node.ID
	var bestID workload.JobID
	for _, j := range s.Jobs {
		nodes := refDegradableOf(j, idx)
		if len(nodes) == 0 {
			continue
		}
		k := key(j)
		if k > best || (k == best && (bestNodes == nil || j.ID < bestID)) {
			best, bestNodes, bestID = k, nodes, j.ID
		}
	}
	return bestNodes
}

func refCollect(s *refSnapshot, jobs []refJob) []node.ID {
	idx := refIndex(s)
	needed := float64(s.P - s.PL)
	saved := 0.0
	inSet := make(map[node.ID]bool)
	var out []node.ID
	for _, j := range jobs {
		added := false
		for _, id := range refDegradableOf(j, idx) {
			if inSet[id] {
				continue
			}
			inSet[id] = true
			out = append(out, id)
			saved += float64(idx[id].Est - idx[id].EstLower)
			added = true
		}
		if added && saved >= needed {
			break
		}
	}
	return out
}

func refBFP(s *refSnapshot) []node.ID {
	idx := refIndex(s)
	needed := float64(s.P - s.PL)
	bestFit := math.MaxFloat64
	var fitNodes []node.ID
	largest := -1.0
	var largestNodes []node.ID
	for _, j := range s.Jobs {
		nodes := refDegradableOf(j, idx)
		if len(nodes) == 0 {
			continue
		}
		saving := 0.0
		for _, id := range nodes {
			saving += float64(idx[id].Est - idx[id].EstLower)
		}
		if saving >= needed && saving < bestFit {
			bestFit, fitNodes = saving, nodes
		}
		if saving > largest {
			largest, largestNodes = saving, nodes
		}
	}
	if fitNodes != nil {
		return fitNodes
	}
	return largestNodes
}

func refRandom(s *refSnapshot, rng *rand.Rand) []node.ID {
	idx := refIndex(s)
	var eligible [][]node.ID
	for _, j := range s.Jobs {
		if nodes := refDegradableOf(j, idx); len(nodes) > 0 {
			eligible = append(eligible, nodes)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	if rng == nil {
		return eligible[0]
	}
	return eligible[rng.Intn(len(eligible))]
}

// refSelect is the reference selection of the named policy.
func refSelect(name string, rng *rand.Rand, s *refSnapshot) []node.ID {
	switch name {
	case "mpc":
		return refSingleJob(s, func(j refJob) float64 { return float64(j.Power) })
	case "lpc":
		return refSingleJob(s, func(j refJob) float64 { return -float64(j.Power) })
	case "hri":
		return refSingleJob(s, refJob.rate)
	case "mincost":
		return refSingleJob(s, func(j refJob) float64 { return float64(j.Saving) / (0.1 + j.Util) })
	case "mpc-c":
		return refCollect(s, refByPowerDesc(s))
	case "lpc-c":
		jobs := refByPowerDesc(s)
		slices.Reverse(jobs)
		return refCollect(s, jobs)
	case "hri-c":
		jobs := append([]refJob(nil), s.Jobs...)
		sort.Slice(jobs, func(a, b int) bool {
			ra, rb := jobs[a].rate(), jobs[b].rate()
			if ra != rb {
				return ra > rb
			}
			return jobs[a].ID < jobs[b].ID
		})
		return refCollect(s, jobs)
	case "bfp":
		return refBFP(s)
	case "none":
		return nil
	case "all":
		var out []node.ID
		for _, n := range s.Nodes {
			if refDegradable(n) {
				out = append(out, n.ID)
			}
		}
		return out
	case "random":
		return refRandom(s, rng)
	}
	panic("refSelect: no reference for " + name)
}

// drawSnapshot draws a snapshot whose node IDs are a shuffled subset of a
// wider range (so an ID is not a position), with idle, floor-level and
// jobless nodes. Values are coarse so that jobs tie on power, rate and
// saving. Half the draws aggregate the jobs as Manager.Cycle does; the
// others list them by hand, members drawn from any node, one node in two
// jobs, and sums that need not match the members.
func drawSnapshot(g *proptest.Generator) *policy.Snapshot {
	n := g.IntRange(0, 48)
	ids := g.Rand().Perm(3*n + 1)[:n]
	s := &policy.Snapshot{PL: 30000}
	s.P = s.PL + units.Watts(10*g.Intn(60))
	for i := 0; i < n; i++ {
		level := g.Intn(4) * 3 // 0 is the floor
		est := units.Watts(100 + 20*g.Intn(6))
		ns := policy.NodeState{
			ID: node.ID(ids[i]), Level: level, MaxLevel: 9, AtLowest: level == 0,
			Idle: g.Bool(0.2), Est: est, EstLower: est - units.Watts(10*g.Intn(3)),
			PrevEst: units.Watts(80 + 20*g.Intn(6)), CPUUtil: float64(g.Intn(5)) / 4,
			Job: workload.JobID(g.Intn(6)), // 0 = jobless
		}
		if level == 0 {
			ns.EstLower = ns.Est
		}
		if g.Bool(0.1) {
			ns.PrevEst = 0
		}
		s.Nodes = append(s.Nodes, ns)
	}
	if g.Bool(0.5) {
		s.Jobs = manager.AggregateJobs(s.Nodes)
		return s
	}
	id := workload.JobID(0)
	for k := g.Intn(7); k > 0; k-- {
		id += workload.JobID(g.IntRange(1, 3))
		j := policy.JobState{
			ID: id, Power: units.Watts(100 * g.Intn(4)), PrevPower: units.Watts(100 * g.Intn(4)),
			Saving: units.Watts(10 * g.Intn(4)), Util: float64(g.Intn(3)) / 2,
		}
		for m := g.Intn(min(n, 8) + 1); m > 0; m-- {
			j.Nodes = append(j.Nodes, g.Intn(n))
		}
		s.Jobs = append(s.Jobs, j)
	}
	if len(s.Jobs) > 1 && n > 0 {
		shared := g.Intn(n)
		s.Jobs[0].Nodes = append(s.Jobs[0].Nodes, shared)
		s.Jobs[len(s.Jobs)-1].Nodes = append(s.Jobs[len(s.Jobs)-1].Nodes, shared)
	}
	return s
}

// TestSelectionEqualsIDReference: on 1 000 drawn snapshots every policy's
// positional selection, renamed to IDs through Snapshot.Nodes, is the
// reference's selection in content and order; Random draws from
// identically seeded generators on both sides, three times per snapshot.
func TestSelectionEqualsIDReference(t *testing.T) {
	proptest.MustCheck(t, "select-by-position", proptest.Config{NumTrials: 1000, Seed: 31_01}, func(g *proptest.Generator) error {
		s := drawSnapshot(g)
		ref := toRef(s)
		for _, name := range policy.Names() {
			p, err := policy.New(name, rand.New(rand.NewSource(g.Seed())))
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(g.Seed()))
			for draw := 0; draw < 3; draw++ {
				var got []node.ID
				for _, pos := range p.Select(s) {
					got = append(got, s.Nodes[pos].ID)
				}
				if want := refSelect(name, rng, ref); !slices.Equal(got, want) {
					return fmt.Errorf("%s (draw %d) selected %v, reference %v", name, draw, got, want)
				}
			}
		}
		return nil
	})
}
