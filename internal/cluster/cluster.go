// Package cluster assembles the large-scale system under management: the
// node population, the paper's node-set classification (§II.A) — A_total,
// A_uncontrollable, A_candidate — and the aggregate quantities the
// architecture's assumptions (§II.D) are stated over, such as the
// theoretical maximal power P_thy.
package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/units"
)

// Config describes a homogeneous cluster build.
type Config struct {
	// Nodes is the total node count (|A_total|).
	Nodes int
	// Model is the per-node device/power model.
	Model power.Model
	// ModelFor, when non-nil, overrides Model per node index —
	// heterogeneous clusters (Algorithm 1 explicitly supports them,
	// §III.B property 1).
	ModelFor func(i int) power.Model
	// Privileged is how many nodes are permanently uncontrollable
	// (no power-management facility or performance-critical, §II.A).
	Privileged int
	// ModelError and JitterSigma are passed through to node construction.
	ModelError  float64
	JitterSigma float64
	// Rng drives per-node distortion and flicker draws; nil disables.
	Rng *rand.Rand
}

// Cluster is the managed system.
type Cluster struct {
	nodes []*node.Node
	byID  map[node.ID]*node.Node
}

// New builds a cluster. Privileged nodes are placed at evenly spaced IDs so
// candidate/privileged status does not correlate with placement order.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Privileged < 0 || cfg.Privileged > cfg.Nodes {
		return nil, fmt.Errorf("cluster: privileged count %d outside [0,%d]", cfg.Privileged, cfg.Nodes)
	}
	priv := spread(cfg.Nodes, cfg.Privileged)
	c := &Cluster{byID: make(map[node.ID]*node.Node, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		model := cfg.Model
		if cfg.ModelFor != nil {
			model = cfg.ModelFor(i)
		}
		n, err := node.New(node.ID(i), node.Config{
			Model:        model,
			Controllable: !priv[i],
			ModelError:   cfg.ModelError,
			JitterSigma:  cfg.JitterSigma,
			Rng:          cfg.Rng,
		})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.byID[n.ID()] = n
	}
	return c, nil
}

// spread marks k of n positions true, evenly spaced.
func spread(n, k int) []bool {
	out := make([]bool, n)
	if k <= 0 {
		return out
	}
	for i := 0; i < k; i++ {
		out[i*n/k] = true
	}
	return out
}

// Tianhe128 returns the paper's experimental environment: 128 Tianhe-1A
// nodes, all power-manageable, with a 2% model error and 0.5% power
// flicker.
func Tianhe128(rng *rand.Rand) (*Cluster, error) {
	return New(Config{
		Nodes:       128,
		Model:       power.TianheNode(),
		Privileged:  0,
		ModelError:  0.02,
		JitterSigma: 0.005,
		Rng:         rng,
	})
}

// Size returns |A_total|.
func (c *Cluster) Size() int { return len(c.nodes) }

// Nodes returns all nodes in ID order (A_total).
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id node.ID) *node.Node { return c.byID[id] }

// Candidates returns A_candidate = A_total − A_uncontrollable: the nodes
// currently subject to power management.
func (c *Cluster) Candidates() []*node.Node {
	out := make([]*node.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Controllable() {
			out = append(out, n)
		}
	}
	return out
}

// SetCandidateCount reconfigures A_candidate to contain exactly k evenly
// spaced nodes (the remainder become uncontrollable). Figure 6 sweeps this.
// Nodes leaving the candidate set are restored to full performance first —
// the manager can no longer actuate them.
func (c *Cluster) SetCandidateCount(k int) error {
	if k < 0 || k > len(c.nodes) {
		return fmt.Errorf("cluster: candidate count %d outside [0,%d]", k, len(c.nodes))
	}
	keep := spread(len(c.nodes), k)
	for i, n := range c.nodes {
		if !keep[i] && n.Controllable() {
			// Restore before relinquishing control.
			if err := n.SetLevel(n.Levels() - 1); err != nil {
				return err
			}
		}
		n.SetControllable(keep[i])
	}
	return nil
}

// TruePower implements power.Source: the instantaneous IT load of the
// whole system.
func (c *Cluster) TruePower() units.Watts {
	var sum units.Watts
	for _, n := range c.nodes {
		sum += n.TruePower()
	}
	return sum
}

// TheoreticalPeak returns P_thy = Σ P_i (§II.D, Necessity).
func (c *Cluster) TheoreticalPeak() units.Watts {
	var sum units.Watts
	for _, n := range c.nodes {
		sum += n.MaxPower()
	}
	return sum
}

// FloorPower returns the aggregate draw with every node at its lowest
// level and idle — the floor the Operability assumption (§II.D) adds a
// job's worth of headroom to.
func (c *Cluster) FloorPower() units.Watts {
	var sum units.Watts
	for _, n := range c.nodes {
		sum += n.Model().MinPower()
	}
	return sum
}

// FlooredWorstCase returns the aggregate draw with every candidate at its
// lowest level under full load and every other node at its worst case —
// what the Controllability assumption (§II.D) requires to fit under the
// provision capability.
func (c *Cluster) FlooredWorstCase() units.Watts {
	var sum units.Watts
	for _, n := range c.nodes {
		m := n.Model()
		if n.Controllable() {
			sum += m.Instant(1, 1, 1, 0)
		} else {
			sum += m.MaxPower()
		}
	}
	return sum
}

// Tick advances every node's kernel counters by dt.
func (c *Cluster) Tick(dt time.Duration) {
	for _, n := range c.nodes {
		n.Tick(dt)
	}
}
