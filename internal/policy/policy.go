// Package policy implements the target set selection policies of §IV.
//
// A policy inspects a Snapshot — the global manager's per-cycle view of the
// candidate nodes and the jobs running on them — and returns the subset of
// candidate nodes (A_target) whose power budget the capping algorithm will
// cut by one level.
//
// Nodes are named by position, not by ID: JobState.Nodes and the result of
// Select index Snapshot.Nodes, so a selection reads each node's state where
// it lies and builds no ID-keyed lookup of the snapshot.
//
// State-based policies (MPC, MPC-C, LPC, LPC-C, BFP) select by the current
// power consumption of jobs; change-based policies (HRI, HRI-C) select by
// the rate of increase in job power. None/All/Random baselines support the
// evaluation.
package policy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/node"
	"repro/internal/units"
	"repro/internal/workload"
)

// NodeState is the manager's view of one candidate node at this cycle.
type NodeState struct {
	ID    node.ID
	Level int
	// MaxLevel is the node's highest level index (Levels-1); the manager
	// needs it to know when a restored node leaves A_degraded.
	MaxLevel int
	AtLowest bool
	Idle     bool
	// Est is P(x): formula (1) evaluated at the node's current level.
	Est units.Watts
	// EstLower is P'(x): formula (1) evaluated one level lower (equal to
	// Est when the node is already at its lowest level).
	EstLower units.Watts
	// PrevEst is the previous cycle's P(x); zero on the first sighting.
	PrevEst units.Watts
	// CPUUtil is the node's sampled busy fraction this interval — the
	// manager's observable proxy for how frequency-sensitive the node's
	// work is.
	CPUUtil float64
	// Job is the job occupying the node; 0 when free.
	Job workload.JobID
}

// JobState aggregates the candidate nodes of one job.
type JobState struct {
	ID workload.JobID
	// Nodes is the paper's Nodes(J): the positions in Snapshot.Nodes of the
	// non-idle candidate nodes running J.
	Nodes []int
	// Power is P(J) = Σ P(x) over Nodes.
	Power units.Watts
	// PrevPower is P^{t−1}(J) over the same node set; zero if unknown.
	PrevPower units.Watts
	// Saving is Σ (P(x) − P'(x)): the predicted cut from degrading every
	// degradable node of the job by one level.
	Saving units.Watts
	// Util is the mean sampled CPU utilisation across Nodes — high means
	// compute-bound work that a DVFS cut will hurt proportionally.
	Util float64
}

// RateOfIncrease returns ΔP^t(J) = (P^t−P^{t−1})/P^{t−1}. A job first seen
// this cycle has no previous sample, so its rate is unknown and reported
// as 0 — the change-based policies only act on jobs with an observed
// history, exactly as the paper's formula (defined over two consecutive
// samples) requires.
func (j JobState) RateOfIncrease() float64 {
	if j.PrevPower <= 0 {
		return 0
	}
	return float64(j.Power-j.PrevPower) / float64(j.PrevPower)
}

// Snapshot is the full per-cycle sensing result handed to a policy.
type Snapshot struct {
	// P is the system power reading this cycle.
	P units.Watts
	// PL is the lower threshold in force; P−PL is the cut the collection
	// policies aim for.
	PL units.Watts
	// Nodes holds every candidate node's state.
	Nodes []NodeState
	// Jobs holds every job with at least one non-idle candidate node,
	// in ascending job ID order.
	Jobs []JobState
}

// Policy selects A_target from a snapshot. Implementations must only
// return nodes that are degradable: non-idle candidates above their lowest
// level (§III.B property 4).
type Policy interface {
	Name() string
	// Select returns A_target as positions in s.Nodes.
	Select(s *Snapshot) []int
}

// degradable reports whether a node may be selected.
func degradable(n *NodeState) bool { return !n.Idle && !n.AtLowest }

// hasDegradable reports whether any of j's nodes may be selected.
func hasDegradable(s *Snapshot, j *JobState) bool {
	return slices.ContainsFunc(j.Nodes, func(p int) bool { return degradable(&s.Nodes[p]) })
}

// degradableOf returns the positions of the degradable nodes of s.Jobs[i];
// nil when i < 0.
func degradableOf(s *Snapshot, i int) []int {
	if i < 0 {
		return nil
	}
	var out []int
	for _, p := range s.Jobs[i].Nodes {
		if degradable(&s.Nodes[p]) {
			out = append(out, p)
		}
	}
	return out
}

// jobOrder returns the indices of s.Jobs sorted by c.
func jobOrder(s *Snapshot, c func(a, b *JobState) int) []int {
	order := make([]int, len(s.Jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return c(&s.Jobs[a], &s.Jobs[b]) })
	return order
}

// powerDesc orders jobs by P(J) descending (ties by ID for determinism).
func powerDesc(a, b *JobState) int {
	return cmp.Or(cmp.Compare(b.Power, a.Power), cmp.Compare(a.ID, b.ID))
}

// selectSingleJob returns the degradable nodes of the job maximising key
// (with strict preference; ties by lower job ID). Jobs with no degradable
// nodes are skipped so the policy always returns an actionable set when
// one exists.
func selectSingleJob(s *Snapshot, key func(*JobState) float64) []int {
	best, bestK := -1, -math.MaxFloat64
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if !hasDegradable(s, j) {
			continue
		}
		k := key(j)
		if k > bestK || (k == bestK && (best < 0 || j.ID < s.Jobs[best].ID)) {
			best, bestK = i, k
		}
	}
	return degradableOf(s, best)
}

// MPC is the "most power consuming job" policy: target the nodes of the
// job with the largest P(J).
type MPC struct{}

// Name implements Policy.
func (MPC) Name() string { return "mpc" }

// Select implements Policy.
func (MPC) Select(s *Snapshot) []int {
	return selectSingleJob(s, func(j *JobState) float64 { return float64(j.Power) })
}

// LPC is the "least power consuming job" policy — slowest effect on power,
// least likely to cause green/yellow swings (§IV.A).
type LPC struct{}

// Name implements Policy.
func (LPC) Name() string { return "lpc" }

// Select implements Policy.
func (LPC) Select(s *Snapshot) []int {
	return selectSingleJob(s, func(j *JobState) float64 { return -float64(j.Power) })
}

// HRI is the "highest rate of increase" change-based policy: target the
// job with the largest ΔP^t(J).
type HRI struct{}

// Name implements Policy.
func (HRI) Name() string { return "hri" }

// Select implements Policy.
func (HRI) Select(s *Snapshot) []int {
	return selectSingleJob(s, func(j *JobState) float64 { return j.RateOfIncrease() })
}

// collect accumulates the jobs at the given indices, in order, until the
// predicted saving covers P − PL, per Algorithm 2's loop. It returns the
// union of the accumulated jobs' degradable nodes.
func collect(s *Snapshot, order []int) []int {
	needed := float64(s.P - s.PL)
	saved := 0.0
	taken := make([]bool, len(s.Nodes))
	var out []int
	for _, i := range order {
		added := false
		for _, p := range s.Jobs[i].Nodes {
			n := &s.Nodes[p]
			if !degradable(n) || taken[p] {
				continue
			}
			taken[p] = true
			out = append(out, p)
			saved += float64(n.Est - n.EstLower)
			added = true
		}
		if added && saved >= needed {
			break
		}
	}
	return out
}

// MPCC is Algorithm 2, the "most power consuming job collection" policy:
// accumulate jobs in descending P(J) order until the saving Σ(P(x)−P'(x))
// reaches P − P_L.
type MPCC struct{}

// Name implements Policy.
func (MPCC) Name() string { return "mpc-c" }

// Select implements Policy.
func (MPCC) Select(s *Snapshot) []int {
	return collect(s, jobOrder(s, powerDesc))
}

// LPCC is the least-power counterpart of MPCC: accumulate jobs in
// ascending P(J) order.
type LPCC struct{}

// Name implements Policy.
func (LPCC) Name() string { return "lpc-c" }

// Select implements Policy.
func (LPCC) Select(s *Snapshot) []int {
	order := jobOrder(s, powerDesc)
	slices.Reverse(order)
	return collect(s, order)
}

// HRIC accumulates jobs by descending rate of increase until the saving
// covers P − P_L — the collection counterpart of HRI (§IV.B).
type HRIC struct{}

// Name implements Policy.
func (HRIC) Name() string { return "hri-c" }

// Select implements Policy.
func (HRIC) Select(s *Snapshot) []int {
	return collect(s, jobOrder(s, func(a, b *JobState) int {
		return cmp.Or(cmp.Compare(b.RateOfIncrease(), a.RateOfIncrease()), cmp.Compare(a.ID, b.ID))
	}))
}

// MinCost is a sensitivity-aware extension beyond the paper's §IV family,
// motivated by the fairness study: DVFS capping hurts compute-bound jobs
// (high CPU utilisation) far more than communication/memory-bound ones.
// MinCost targets the job with the best watts-saved per unit of likely
// slowdown, using the sampled CPU utilisation as the observable
// sensitivity proxy:
//
//	score(J) = Saving(J) / (0.1 + Util(J))
//
// It cuts comparable power to MPC while steering the performance cost
// towards the jobs that barely feel it.
type MinCost struct{}

// Name implements Policy.
func (MinCost) Name() string { return "mincost" }

// Select implements Policy.
func (MinCost) Select(s *Snapshot) []int {
	return selectSingleJob(s, func(j *JobState) float64 {
		return float64(j.Saving) / (0.1 + j.Util)
	})
}

// BFP is the "best fit job" policy: select the job whose one-level saving
// is just above P − P_L — a compromise between MPC and LPC (§IV.A). When
// no single job saves enough, it falls back to the job with the largest
// saving.
type BFP struct{}

// Name implements Policy.
func (BFP) Name() string { return "bfp" }

// Select implements Policy.
func (BFP) Select(s *Snapshot) []int {
	needed := float64(s.P - s.PL)
	fit, bestFit := -1, math.MaxFloat64
	largest, most := -1, -1.0
	for i := range s.Jobs {
		saving, some := 0.0, false
		for _, p := range s.Jobs[i].Nodes {
			if n := &s.Nodes[p]; degradable(n) {
				saving += float64(n.Est - n.EstLower)
				some = true
			}
		}
		if !some {
			continue
		}
		if saving >= needed && saving < bestFit {
			fit, bestFit = i, saving
		}
		if saving > most {
			largest, most = i, saving
		}
	}
	if fit < 0 {
		fit = largest
	}
	return degradableOf(s, fit)
}

// None never selects anything: the uncapped baseline.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Select implements Policy.
func (None) Select(*Snapshot) []int { return nil }

// All selects every degradable candidate — the indiscriminate throttling
// the related-work systems apply, used as an upper bound on power cut and
// performance damage.
type All struct{}

// Name implements Policy.
func (All) Name() string { return "all" }

// Select implements Policy.
func (All) Select(s *Snapshot) []int {
	var out []int
	for p := range s.Nodes {
		if degradable(&s.Nodes[p]) {
			out = append(out, p)
		}
	}
	return out
}

// Random selects the nodes of one uniformly random job with degradable
// nodes — a fairness baseline.
type Random struct{ Rng *rand.Rand }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Select implements Policy.
func (r Random) Select(s *Snapshot) []int {
	var eligible []int
	for i := range s.Jobs {
		if hasDegradable(s, &s.Jobs[i]) {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	if r.Rng == nil {
		return degradableOf(s, eligible[0])
	}
	return degradableOf(s, eligible[r.Rng.Intn(len(eligible))])
}

// New constructs a policy by name. Random receives the given rng.
func New(name string, rng *rand.Rand) (Policy, error) {
	switch name {
	case "mpc":
		return MPC{}, nil
	case "mpc-c":
		return MPCC{}, nil
	case "lpc":
		return LPC{}, nil
	case "lpc-c":
		return LPCC{}, nil
	case "bfp":
		return BFP{}, nil
	case "hri":
		return HRI{}, nil
	case "hri-c":
		return HRIC{}, nil
	case "mincost":
		return MinCost{}, nil
	case "none":
		return None{}, nil
	case "all":
		return All{}, nil
	case "random":
		return Random{Rng: rng}, nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
}

// Names lists every registered policy name.
func Names() []string {
	return []string{"mpc", "mpc-c", "lpc", "lpc-c", "bfp", "hri", "hri-c", "mincost", "none", "all", "random"}
}
