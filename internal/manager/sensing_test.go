package manager

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
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

func reading(id int, level int, util float64, job workload.JobID) AgentReading {
	return AgentReading{
		ID: node.ID(id), Level: level, MaxLevel: 9,
		Delta: procfs.Delta{
			Interval: time.Second, CPUUtil: util,
			MemUsed: 1 << 32, MemTotal: 48 << 30,
		},
		Job: job,
	}
}

func TestBuilderGroupsJobs(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	snap := b.Build(units.KW(32), units.KW(31), []AgentReading{
		reading(0, 9, 0.9, 1),
		reading(1, 9, 0.9, 1),
		reading(2, 9, 0.7, 2),
		reading(3, 9, 0.01, 0), // idle, no job
	})
	if len(snap.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(snap.Nodes))
	}
	if len(snap.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(snap.Jobs))
	}
	if snap.Jobs[0].ID != 1 || len(snap.Jobs[0].Nodes) != 2 {
		t.Errorf("job 1 grouping wrong: %+v", snap.Jobs[0])
	}
	if snap.Jobs[0].Power <= snap.Jobs[1].Power {
		t.Error("two-node job should out-consume one-node job")
	}
	if snap.Jobs[0].Saving <= 0 {
		t.Error("job saving not computed")
	}
}

func TestBuilderIdleDetection(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	snap := b.Build(0, 0, []AgentReading{
		reading(0, 9, 0.01, 3), // idle despite job attribution
		reading(1, 9, 0.5, 3),
	})
	if !snap.Nodes[0].Idle {
		t.Error("quiet node not marked idle")
	}
	if snap.Nodes[1].Idle {
		t.Error("busy node marked idle")
	}
	// Idle nodes do not join Nodes(J).
	if len(snap.Jobs) != 1 || len(snap.Jobs[0].Nodes) != 1 {
		t.Errorf("jobs = %+v", snap.Jobs)
	}
}

func TestBuilderNICIdleDetection(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	r := reading(0, 9, 0.01, 1)
	// Heavy NIC traffic: not idle even with a quiet CPU.
	r.Delta.NICBytes = uint64(0.5 * float64(power.TianheNode().NIC.Bandwidth))
	snap := b.Build(0, 0, []AgentReading{r})
	if snap.Nodes[0].Idle {
		t.Error("NIC-busy node marked idle")
	}
}

func TestBuilderPrevEstAcrossCycles(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	s1 := b.Build(0, 0, []AgentReading{reading(0, 9, 0.4, 1)})
	if s1.Nodes[0].PrevEst != 0 {
		t.Error("first sighting has nonzero PrevEst")
	}
	s2 := b.Build(0, 0, []AgentReading{reading(0, 9, 0.8, 1)})
	if s2.Nodes[0].PrevEst != s1.Nodes[0].Est {
		t.Errorf("PrevEst = %v, want previous Est %v", s2.Nodes[0].PrevEst, s1.Nodes[0].Est)
	}
	if s2.Jobs[0].PrevPower != s1.Nodes[0].Est {
		t.Errorf("job PrevPower = %v", s2.Jobs[0].PrevPower)
	}
	if s2.Jobs[0].RateOfIncrease() <= 0 {
		t.Error("rising job has non-positive rate")
	}
}

func TestBuilderEstLowerAtFloor(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	snap := b.Build(0, 0, []AgentReading{reading(0, 0, 0.9, 1)})
	n := snap.Nodes[0]
	if !n.AtLowest {
		t.Error("level-0 node not AtLowest")
	}
	if n.EstLower != n.Est {
		t.Errorf("floor node EstLower %v != Est %v", n.EstLower, n.Est)
	}
}

func TestBuilderJobOrderDeterministic(t *testing.T) {
	b := NewBuilder(power.TianheNode())
	snap := b.Build(0, 0, []AgentReading{
		reading(0, 9, 0.9, 7),
		reading(1, 9, 0.9, 3),
		reading(2, 9, 0.9, 5),
	})
	if len(snap.Jobs) != 3 || snap.Jobs[0].ID != 3 || snap.Jobs[1].ID != 5 || snap.Jobs[2].ID != 7 {
		t.Errorf("job order = %+v", snap.Jobs)
	}
}

// referenceJobs is job aggregation as Build first did it — a map of job
// records filled in reading order, emitted by ascending ID — kept as the
// reference AggregateJobs is compared against. A job with a member that
// has no previous estimate has no previous power.
func referenceJobs(nodes []policy.NodeState) []policy.JobState {
	jobs := map[workload.JobID]*policy.JobState{}
	unknown := map[workload.JobID]bool{}
	var ids []workload.JobID
	for i, n := range nodes {
		if n.Job == 0 || n.Idle {
			continue
		}
		js := jobs[n.Job]
		if js == nil {
			js = &policy.JobState{ID: n.Job}
			jobs[n.Job] = js
			ids = append(ids, n.Job)
		}
		js.Nodes = append(js.Nodes, i)
		js.Power += n.Est
		js.PrevPower += n.PrevEst
		js.Saving += n.Est - n.EstLower
		js.Util += (n.CPUUtil - js.Util) / float64(len(js.Nodes))
		unknown[n.Job] = unknown[n.Job] || n.PrevEst == 0
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var out []policy.JobState
	for _, id := range ids {
		if unknown[id] {
			jobs[id].PrevPower = 0
		}
		out = append(out, *jobs[id])
	}
	return out
}

// TestRateNeedsEveryMembersPreviousEstimate: P^{t−1}(J) is taken over the
// node set of P^t(J), so a job with a member that sat out the previous
// cycle — one dropped sample is enough — has no previous power and no
// rate. Summing only the members that have one read four steady 300 W
// nodes as rising by a third, and HRI targeted them instead of the job
// that really rose by 10 %.
func TestRateNeedsEveryMembersPreviousEstimate(t *testing.T) {
	var nodes []policy.NodeState
	for i := 0; i < 4; i++ {
		prev := units.Watts(300)
		if i == 3 {
			prev = 0 // missed last cycle's sample
		}
		nodes = append(nodes,
			policy.NodeState{ID: node.ID(i), Level: 9, MaxLevel: 9, Est: 300, EstLower: 285, PrevEst: prev, Job: 1},
			policy.NodeState{ID: node.ID(4 + i), Level: 9, MaxLevel: 9, Est: 330, EstLower: 315, PrevEst: 300, Job: 2})
	}
	snap := &policy.Snapshot{Nodes: nodes, Jobs: AggregateJobs(nodes)}
	flat, rising := snap.Jobs[0], snap.Jobs[1]
	if flat.PrevPower != 0 || flat.RateOfIncrease() != 0 {
		t.Errorf("flat job with a member lacking PrevEst: PrevPower %v, rate %+.3f; want 0 and 0 (unknown)", flat.PrevPower, flat.RateOfIncrease())
	}
	if r := rising.RateOfIncrease(); math.Abs(r-0.1) > 1e-9 {
		t.Errorf("rising job's rate = %+.3f, want +0.100", r)
	}
	got := policy.HRI{}.Select(snap)
	for _, p := range got {
		if snap.Nodes[p].Job != 2 {
			t.Fatalf("HRI targeted node %d of job %d, want the rising job 2", snap.Nodes[p].ID, snap.Nodes[p].Job)
		}
	}
	if len(got) != 4 {
		t.Errorf("HRI targeted %d nodes, want the rising job's 4", len(got))
	}
}

// TestBuildIsEvalPlusAggregate: over random fleets and consecutive cycles
// (a third of the nodes sit each cycle out), Build is Eval per reading,
// fed the previous cycle's estimate, plus AggregateJobs — and a snapshot
// that reaches a yellow Cycle without jobs gets the same ones there.
func TestBuildIsEvalPlusAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(power.TianheNode())
	b.SetNodeModel(3, smallNode())
	prev := map[node.ID]units.Watts{}
	for cycle := 0; cycle < 4; cycle++ {
		var readings []AgentReading
		for id := 0; id < 200; id++ {
			if rng.Intn(3) == 0 {
				continue
			}
			r := reading(id, rng.Intn(10), rng.Float64(), workload.JobID(rng.Intn(9)))
			if rng.Intn(4) == 0 {
				r.Delta.CPUUtil = 0.01 // idle
			}
			r.Delta.NICBytes = uint64(rng.Intn(1 << 28))
			readings = append(readings, r)
		}
		rng.Shuffle(len(readings), func(i, j int) { readings[i], readings[j] = readings[j], readings[i] })
		snap := b.Build(units.KW(32), units.KW(31), readings)

		var want []policy.NodeState
		next := map[node.ID]units.Watts{}
		for _, r := range readings {
			ns := b.Eval(r, prev[r.ID])
			want = append(want, ns)
			next[r.ID] = ns.Est
		}
		prev = next
		if !reflect.DeepEqual(snap.Nodes, want) {
			t.Fatalf("cycle %d: Build's nodes differ from Eval per reading", cycle)
		}
		ref := referenceJobs(want)
		if len(ref) == 0 || !reflect.DeepEqual(snap.Jobs, ref) {
			t.Fatalf("cycle %d: Build's jobs = %+v, reference %+v", cycle, snap.Jobs, ref)
		}

		spy := &spyPolicy{}
		m, err := New(Config{Tg: 2, Policy: spy})
		if err != nil {
			t.Fatal(err)
		}
		bare := &policy.Snapshot{P: snap.P, PL: snap.PL, Nodes: snap.Nodes}
		if _, _, err := m.Cycle(snap.P, thr(), bare, newFake()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spy.jobs, ref) {
			t.Fatalf("cycle %d: yellow Cycle selected over %+v, want %+v", cycle, spy.jobs, ref)
		}
	}
}

// spyPolicy records the jobs it is asked to select from and selects none.
type spyPolicy struct{ jobs []policy.JobState }

func (*spyPolicy) Name() string { return "spy" }
func (p *spyPolicy) Select(s *policy.Snapshot) []int {
	p.jobs = s.Jobs
	return nil
}

func TestCollectorEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cl, err := cluster.New(cluster.Config{Nodes: 8, Model: power.TianheNode(), Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(cl.Nodes(), scheduler.Config{ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	suite := workload.NPB(workload.ClassC)
	sched.Submit(workload.Request{Spec: suite[0], NProcs: 8}) // EP on 4 nodes

	coll := NewCollector(cl, sched)
	b := NewBuilder(power.TianheNode())

	// Warm-up cycle: first collection has no previous snapshot.
	now := time.Second
	sched.Tick(now, time.Second)
	cl.Tick(time.Second)
	first := coll.Collect(now)
	if len(first) != 8 {
		t.Fatalf("readings = %d", len(first))
	}
	b.Build(cl.TruePower(), 0, first)

	// Second cycle: deltas now carry real utilisation.
	now += time.Second
	cl.Tick(time.Second)
	sched.Tick(now, time.Second)
	snap := b.Build(cl.TruePower(), 0, coll.Collect(now))
	if len(snap.Jobs) != 1 {
		t.Fatalf("jobs = %+v", snap.Jobs)
	}
	if got := len(snap.Jobs[0].Nodes); got != 4 {
		t.Errorf("job nodes = %d, want 4", got)
	}
	// Estimated job power should be in a plausible band for 4 busy
	// EP nodes (≈250-300 W each).
	if p := snap.Jobs[0].Power; p < 800 || p > 1400 {
		t.Errorf("estimated job power = %v", p)
	}
}

func TestCollectorSkipsPrivilegedNodes(t *testing.T) {
	cl, _ := cluster.New(cluster.Config{Nodes: 8, Model: power.TianheNode(), Privileged: 3})
	coll := NewCollector(cl, nil)
	if got := len(coll.Collect(time.Second)); got != 5 {
		t.Errorf("collected %d readings, want 5 candidates only", got)
	}
}

func TestClusterActuator(t *testing.T) {
	cl, _ := cluster.New(cluster.Config{Nodes: 2, Model: power.TianheNode()})
	act := ClusterActuator{Cluster: cl}
	if err := act.SetNodeLevel(1, 3); err != nil {
		t.Fatal(err)
	}
	if cl.Node(1).Level() != 3 {
		t.Error("level not applied")
	}
	if err := act.SetNodeLevel(99, 3); err == nil {
		t.Error("unknown node accepted")
	}
}

// TestEvalReadsTheTable: Eval allocates nothing, under the default model
// and a registered one, and what it reads from the compiled table is
// Model.Estimate bit for bit — at levels a remote agent could report outside
// the table too.
func TestEvalReadsTheTable(t *testing.T) {
	big, small := power.TianheNode(), smallNode()
	b := NewBuilder(big)
	b.SetNodeModel(3, small)
	var sink policy.NodeState
	for id, m := range map[int]power.Model{0: big, 3: small} {
		for level := -1; level <= m.Levels(); level++ {
			r := reading(id, level, 0.7, 1)
			r.Delta.NICBytes = 1 << 27
			if n := testing.AllocsPerRun(100, func() { sink = b.Eval(r, 250) }); n != 0 {
				t.Errorf("node %d level %d: Eval allocates %v times per call, want 0", id, level, n)
			}
			wantLower := m.Estimate(r.Delta, level)
			if level > 0 {
				wantLower = m.Estimate(r.Delta, level-1)
			}
			if want := m.Estimate(r.Delta, level); sink.Est != want || sink.EstLower != wantLower || sink.PrevEst != 250 {
				t.Errorf("node %d level %d: Est %v, EstLower %v, want exactly %v and %v", id, level, sink.Est, sink.EstLower, want, wantLower)
			}
		}
	}
}
