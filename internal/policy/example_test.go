package policy_test

import (
	"fmt"

	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/units"
	"repro/internal/workload"
)

// snapshotOfTwoJobs builds the manager's view of a 4-node system running
// a big hot job (1) and a small cool job (2).
func snapshotOfTwoJobs() *policy.Snapshot {
	s := &policy.Snapshot{P: units.KW(1.25), PL: units.KW(1.2)}
	add := func(id int, est float64, job workload.JobID) {
		ns := policy.NodeState{
			ID: node.ID(id), Level: 9, MaxLevel: 9,
			Est: units.Watts(est), EstLower: units.Watts(est - 15),
			PrevEst: units.Watts(est), Job: job,
		}
		s.Nodes = append(s.Nodes, ns)
	}
	add(0, 320, 1)
	add(1, 320, 1)
	add(2, 320, 1)
	add(3, 250, 2)
	s.Jobs = []policy.JobState{
		{ID: 1, Nodes: []int{0, 1, 2}, Power: 960, PrevPower: 960, Saving: 45},
		{ID: 2, Nodes: []int{3}, Power: 250, PrevPower: 250, Saving: 15},
	}
	return s
}

func ExampleMPC_Select() {
	// MPC targets the nodes of the most power consuming job (§IV.A),
	// named by their positions in the snapshot.
	targets := policy.MPC{}.Select(snapshotOfTwoJobs())
	fmt.Println(targets)
	// Output: [0 1 2]
}

func ExampleLPC_Select() {
	// LPC targets the least power consuming job — the gentlest cut.
	targets := policy.LPC{}.Select(snapshotOfTwoJobs())
	fmt.Println(targets)
	// Output: [3]
}

func ExampleNew() {
	p, err := policy.New("hri", nil)
	fmt.Println(p.Name(), err)
	// Output: hri <nil>
}
