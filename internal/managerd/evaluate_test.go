package managerd

import (
	"math"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/units"
	"repro/internal/workload"
)

// snapSpy is a policy that keeps a deep copy of every snapshot it is asked
// to select from (the cycle reuses the storage) and selects nothing.
type snapSpy struct{ got []policy.Snapshot }

func (*snapSpy) Name() string { return "spy" }
func (p *snapSpy) Select(s *policy.Snapshot) []int {
	c := policy.Snapshot{P: s.P, PL: s.PL, Nodes: append([]policy.NodeState{}, s.Nodes...)}
	for _, j := range s.Jobs {
		j.Nodes = append([]int{}, j.Nodes...)
		c.Jobs = append(c.Jobs, j)
	}
	p.got = append(p.got, c)
	return nil
}

// randomDelta is one second's counters of a node with 48 GiB of memory:
// random utilisation, footprint and traffic.
func randomDelta(rng *rand.Rand) procfs.Delta {
	return procfs.Delta{
		Interval: time.Second, CPUUtil: rng.Float64(),
		MemUsed: uint64(rng.Intn(48 << 30)), MemTotal: 48 << 30, NICBytes: uint64(rng.Intn(1 << 28)),
	}
}

// TestSweepEvaluationEqualsBuild: the cycle's one evaluation per node, done
// by the sweep's workers, yields what Builder.Build yields on the same
// candidate readings — node states with PrevEst carried from the cycle
// before (0 after a cycle sat out) and, on the yellow path, the same jobs —
// and p is Σ estimates over every fresh node, the quarantined one included.
// Every cycle is yellow, so the spy policy sees every snapshot.
func TestSweepEvaluationEqualsBuild(t *testing.T) {
	const (
		fleet       = 300
		cycles      = 4
		absent      = node.ID(17) // stale in cycle 1 only
		quarantined = node.ID(42)
		top         = 9
	)
	model := power.TianheNode()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spy := &snapSpy{}
		srv, err := New(Config{
			Model: model, Policy: spy, Tg: 1 << 20,
			ControlEvery: time.Hour, StaleAfter: time.Minute,
			Thresholds: power.Thresholds{PL: 1, PH: 1e9},
			Shards:     8, FanoutWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)

		// One hand-made record per node: fixed level and job, mixed across
		// the fleet (no command is ever due, so the connections stay quiet).
		for id := node.ID(0); id < fleet; id++ {
			rec := putRec(t, srv.nodes.of(id), manager.AgentReading{
				ID: id, Level: rng.Intn(top + 1), MaxLevel: top, Job: workload.JobID(rng.Intn(8))}, time.Time{})
			if id == quarantined {
				rec.health = healthRec{state: healthQuarantined, quarantinedAt: time.Now()}
			}
		}

		ref := manager.NewBuilder(model)
		var prevAbsentEst units.Watts
		for c := 0; c < cycles; c++ {
			// This cycle's readings: fresh counters on every node, some idle.
			now := time.Now()
			sent := map[node.ID]manager.AgentReading{}
			for _, sh := range srv.nodes.shards {
				sh.mu.Lock()
				for id, rec := range sh.nodes {
					rec.last.Delta = randomDelta(rng)
					if rng.Intn(5) == 0 {
						rec.last.Delta.CPUUtil, rec.last.Delta.NICBytes = 0.01, 0
					}
					rec.lastAt = now
					if id == absent && c == 1 {
						rec.lastAt = now.Add(-time.Hour)
					}
					sent[id] = rec.last
				}
				sh.mu.Unlock()
			}
			srv.StepCycle()
			if len(spy.got) != c+1 {
				t.Fatalf("seed %d cycle %d: the policy saw %d snapshots, want one per cycle", seed, c, len(spy.got))
			}
			got := spy.got[c]

			// Build on the same candidates, in the snapshot's order (the
			// sweep's is registration order by shard; the running means
			// follow it).
			var readings []manager.AgentReading
			var gotIDs, wantIDs []node.ID
			for _, n := range got.Nodes {
				readings = append(readings, sent[n.ID])
				gotIDs = append(gotIDs, n.ID)
			}
			for id := node.ID(0); id < fleet; id++ {
				if id != quarantined && !(id == absent && c == 1) {
					wantIDs = append(wantIDs, id)
				}
			}
			sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("seed %d cycle %d: snapshot holds %d nodes %v, want the %d fresh unquarantined ones", seed, c, len(gotIDs), gotIDs, len(wantIDs))
			}
			want := ref.Build(got.P, got.PL, readings)
			for k := range want.Nodes {
				if got.Nodes[k] != want.Nodes[k] {
					t.Fatalf("seed %d cycle %d: node state\n got %+v\nwant %+v", seed, c, got.Nodes[k], want.Nodes[k])
				}
			}
			if len(want.Jobs) == 0 || !reflect.DeepEqual(got.Jobs, want.Jobs) {
				t.Fatalf("seed %d cycle %d: yellow-path jobs\n got %+v\nwant %+v", seed, c, got.Jobs, want.Jobs)
			}

			// The absent node: no PrevEst the cycle after the one it sat
			// out, its own last estimate the cycle after that.
			for _, n := range got.Nodes {
				if n.ID != absent {
					continue
				}
				if wantPrev := map[int]units.Watts{0: 0, 2: 0, 3: prevAbsentEst}[c]; n.PrevEst != wantPrev {
					t.Errorf("seed %d cycle %d: absent node's PrevEst = %v, want %v", seed, c, n.PrevEst, wantPrev)
				}
				prevAbsentEst = n.Est
			}

			p := model.Estimate(sent[quarantined].Delta, sent[quarantined].Level)
			for _, n := range want.Nodes {
				p += n.Est
			}
			if math.Abs(float64(got.P-p)) > 1e-9*float64(p) {
				t.Errorf("seed %d cycle %d: p = %v, want %v (Σ estimates, the quarantined node's included)", seed, c, got.P, p)
			}
		}
	}
}

// TestSweepOtherEstimatesEqualModel: the sweep's other two evaluations — a
// quarantined node's estimate at its reported level and, on a governed
// cabinet, every fresh node's demand at its top level — read the compiled
// curve and equal Model.Estimate, the uncompiled definition, bit for bit.
func TestSweepOtherEstimatesEqualModel(t *testing.T) {
	const (
		fleet       = 200
		quarantined = node.ID(42)
	)
	model := power.TianheNode()
	rng := rand.New(rand.NewSource(5))
	srv, err := New(Config{
		Model: model, Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: time.Hour, StaleAfter: time.Minute,
		Thresholds:      power.Thresholds{PL: 1e6, PH: 2e6},
		Shards:          1, // one part, so the sums below add in the sweep's own order
		CoordinatorDial: func() (net.Conn, error) { return nil, net.ErrClosed },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	now := time.Now()
	for id := node.ID(0); id < fleet; id++ {
		top := 4 + rng.Intn(6) // mixed top levels: demand is at each node's own
		rec := putRec(t, srv.nodes.shards[0], manager.AgentReading{ID: id, Level: rng.Intn(top + 1), MaxLevel: top, Delta: randomDelta(rng)}, now)
		if id == quarantined {
			rec.health = healthRec{state: healthQuarantined, quarantinedAt: now}
		}
	}

	parts := srv.sweep(1, now, func(*nodeRec) bool { return true })
	if len(parts) != 1 || len(parts[0].fresh) != fleet || len(parts[0].states) != fleet-1 {
		t.Fatalf("%d parts, %d fresh, %d states; want 1, %d and %d", len(parts), len(parts[0].fresh), len(parts[0].states), fleet, fleet-1)
	}
	var p, demand units.Watts
	sawQuarantined := false
	for _, f := range parts[0].fresh {
		p += model.Estimate(f.r.Delta, f.r.Level)
		demand += model.Estimate(f.r.Delta, f.r.MaxLevel)
		sawQuarantined = sawQuarantined || (f.rec == nil && f.r.ID == quarantined)
	}
	if !sawQuarantined {
		t.Error("the quarantined node is not among the fresh readings without a record")
	}
	if parts[0].p != p {
		t.Errorf("p = %v, want exactly %v (Σ Model.Estimate at the reported level, the quarantined node's included)", parts[0].p, p)
	}
	if parts[0].demand != demand || demand <= p {
		t.Errorf("demand = %v, want exactly %v (Σ Model.Estimate at MaxLevel) and above p = %v", parts[0].demand, demand, p)
	}
}
