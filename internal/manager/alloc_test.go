package manager

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go: the detector's own allocations make
// counts meaningless, so allocation tests only report under -race.
var raceEnabled bool

// nopActuator accepts every command and keeps nothing.
type nopActuator struct{}

func (nopActuator) SetNodeLevel(node.ID, int) error { return nil }

// perCycle returns the heap objects and bytes one call of f allocates, as
// the mean over runs calls after a warm-up call.
func perCycle(runs int, f func()) (objects, bytes float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// fleet builds the snapshot of n busy nodes in jobs of 8 at the given
// level, node IDs shuffled so that no ID equals its position.
func fleet(n, level int) *policy.Snapshot {
	rng := rand.New(rand.NewSource(1))
	ids := rng.Perm(2 * n)
	readings := make([]AgentReading, n)
	for i := range readings {
		readings[i] = reading(ids[i], level, 0.3+0.7*rng.Float64(), workload.JobID(1+i/8))
	}
	snap := NewBuilder(power.TianheNode()).Build(0, 0, readings)
	for _, ns := range snap.Nodes {
		snap.P += ns.Est
	}
	return snap
}

// TestYellowCycleAllocations: a yellow cycle at 512 nodes in jobs of 8,
// with the jobs left for Cycle to aggregate (managerd's shape) and
// Algorithm 2 selecting, allocates at most 48 objects and 64 KiB: no
// ID-keyed copy of the snapshot and no slice per job. Selection by ID
// allocated 346 objects and 234 KiB here.
func TestYellowCycleAllocations(t *testing.T) {
	snap := fleet(512, 9)
	p := snap.P
	thr := power.Thresholds{PL: 0.97 * p, PH: 1.1 * p}
	snap.PL = thr.PL
	m, err := New(Config{Tg: 2, Policy: policy.MPCC{}})
	if err != nil {
		t.Fatal(err)
	}
	var actions []Action
	objects, bytes := perCycle(50, func() {
		snap.Jobs = nil
		_, actions, _ = m.Cycle(p, thr, snap, nopActuator{})
	})
	if len(actions) < 16 {
		t.Fatalf("the yellow cycle degraded %d nodes, want at least two jobs' worth", len(actions))
	}
	t.Logf("%d nodes degraded; %.1f objects, %.1f KiB per cycle", len(actions), objects, bytes/1024)
	if raceEnabled {
		t.Skip("allocations are not counted under -race")
	}
	if objects > 48 || bytes > 64<<10 {
		t.Errorf("a yellow cycle allocates %.1f objects and %.1f KiB, want at most 48 and 64 KiB", objects, bytes/1024)
	}
}

// TestGreenRestoreAllocations: a steady-green cycle that restores 1 024
// degraded nodes allocates less than one copy of the snapshot's node
// states, so it builds no ID-keyed index of them.
func TestGreenRestoreAllocations(t *testing.T) {
	snap := fleet(1024, 5)
	p := snap.P
	thr := power.Thresholds{PL: 1.1 * p, PH: 1.2 * p}
	m, err := New(Config{Tg: 1, Policy: policy.MPCC{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range snap.Nodes {
		m.Adopt(ns.ID)
	}
	var actions []Action
	objects, bytes := perCycle(50, func() {
		_, actions, _ = m.Cycle(p, thr, snap, nopActuator{})
	})
	if len(actions) != len(snap.Nodes) {
		t.Fatalf("the restore cycle raised %d nodes, want all %d", len(actions), len(snap.Nodes))
	}
	for i := 1; i < len(actions); i++ {
		if actions[i-1].Node >= actions[i].Node {
			t.Fatalf("restore commands out of ID order at %d: %v then %v", i, actions[i-1], actions[i])
		}
	}
	copyBytes := float64(len(snap.Nodes)) * float64(unsafe.Sizeof(policy.NodeState{}))
	t.Logf("%.1f objects, %.1f KiB per cycle; one copy of the node states is %.1f KiB", objects, bytes/1024, copyBytes/1024)
	if raceEnabled {
		t.Skip("allocations are not counted under -race")
	}
	if bytes >= copyBytes {
		t.Errorf("a restore cycle allocates %.1f KiB, at least one copy of the %d node states (%.1f KiB)", bytes/1024, len(snap.Nodes), copyBytes/1024)
	}
}
