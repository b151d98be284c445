// Federated fan-out benchmarks: the capping tree at scale, one
// harness.StartTree per shape over the same leaves — cabinet managers of
// 128 fake agents (benchFleet), held in sustained red by their grants: the
// root's budget is 1 W per cabinet (equal-split into P_L 1 W / P_H 2 W
// grants), far below any fleet's draw. No tier ticks (Every is an hour);
// every iteration steps one full round — a coordination cycle in every
// coordinator, root first (classify children, divide the band, send every
// grant), then one complete Algorithm-1 cycle with full command fan-out
// inside every cabinet.
//
//	BenchmarkCycleFanoutFed  – coordinator over total/128 cabinets. The
//	    point of the architecture is that per-agent cost stays at the
//	    128-agent sweet spot however many cabinets are federated, where a
//	    flat manager degrades super-linearly past a few thousand agents
//	    (see BenchmarkCycleFanout at 4096).
//	BenchmarkCycleFanoutFed3 – facility over 4 rows over 8 cabinets each
//	    (4096 agents). The row tier is pure re-division and 8-way grant
//	    fan-out, so the deep tree should price within noise of the
//	    two-tier federation at the same agent count.
//
// Results persist to BENCH_fanout.json as "CycleFanoutFed" and
// "CycleFanoutFed3" keyed by total agent count; CI guards the 16384-agent
// and 4096-agent baselines.
package repro_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/harness"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

// fedSweep is the two-tier total-agent axis; every size is fedCabinetSize
// agents per cabinet, so 16384 is a 128-cabinet federation.
var fedSweep = []int{1024, 4096, 16384}

const (
	fedCabinetSize = 128
	fed3Rows       = 4
	fed3CabsPerRow = 8
	fed3Agents     = fed3Rows * fed3CabsPerRow * fedCabinetSize
)

// fedBenchTree is a stepped tree over benchFleet cabinets.
type fedBenchTree struct {
	tree *harness.Tree
	cabs []*benchFleet
}

// startFedBenchTree boots one coordinator tier per fanout over
// Π fanouts cabinets and warms every cabinet into sustained red.
func startFedBenchTree(b *testing.B, fanouts ...int) *fedBenchTree {
	b.Helper()
	f := &fedBenchTree{}
	cabinets := 1
	tiers := make([]harness.Tier, len(fanouts))
	for i, n := range fanouts {
		tiers[i] = harness.Tier{Fanout: n, Every: time.Hour} // cycles driven explicitly via Step
		cabinets *= n
	}
	f.tree = harness.StartTree(b, harness.TreeOptions{
		Tiers:  tiers,
		Budget: units.Watts(cabinets),
		PH:     units.Watts(2 * cabinets),
		Leaf: func(path []int, dial func() (net.Conn, error)) (func(), func() bool, error) {
			nw := faultnet.New(1 + int64(len(f.cabs)))
			srv, err := managerd.New(managerd.Config{
				Listener:        nw.Listener(),
				Model:           power.TianheNode(),
				Policy:          policy.MPCC{},
				Tg:              3,
				ControlEvery:    time.Hour,
				Thresholds:      power.Thresholds{PL: 1, PH: 2},
				Cabinet:         path[len(path)-1],
				CoordinatorDial: dial,
				ReportEvery:     time.Hour,
				StaleAfter:      time.Hour,
				CommandTimeout:  5 * time.Second,
				HeartbeatEvery:  -1,
				Shards:          128,
				FanoutWorkers:   4,
			})
			if err == nil {
				err = srv.Start()
			}
			if err != nil {
				nw.Close()
				return nil, nil, err
			}
			cf := &benchFleet{srv: srv, nw: nw}
			f.cabs = append(f.cabs, cf)
			cf.wireAgents(b, fedCabinetSize)
			return func() { srv.Stop(); nw.Close() }, func() bool { return srv.Status().Governed }, nil
		},
	})
	for _, cf := range f.cabs {
		cf.warmRed(b)
	}
	return f
}

// run times b.N full rounds and records them under bench.
func (f *fedBenchTree) run(b *testing.B, bench string, agents int) {
	b.ReportAllocs()
	ms := newMemTrack()
	b.ResetTimer()
	var fanout time.Duration // summed in-cabinet fan-out time
	for i := 0; i < b.N; i++ {
		f.tree.Step()
		for _, cf := range f.cabs {
			fanout += cf.srv.StepCycle()
		}
	}
	b.StopTimer()
	allocsOp, bytesOp := ms.perOp(b.N)
	nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(nsOp/float64(agents), "ns/agent")
	recordBench(benchEntry{
		Bench: bench, Agents: agents,
		NsPerOp:     nsOp,
		AllocsPerOp: allocsOp,
		BytesPerOp:  bytesOp,
		FanoutUS:    fanout.Microseconds() / int64(b.N),
	})
}

// BenchmarkCycleFanoutFed measures one two-tier federation round per
// iteration across total/128 cabinets.
func BenchmarkCycleFanoutFed(b *testing.B) {
	for _, n := range fedSweep {
		n := n
		b.Run("n"+itoa(n), func(b *testing.B) {
			startFedBenchTree(b, n/fedCabinetSize).run(b, "CycleFanoutFed", n)
		})
	}
}

// BenchmarkCycleFanoutFed3 measures one three-tier round per iteration:
// facility, 4 rows, then all 32 cabinets.
func BenchmarkCycleFanoutFed3(b *testing.B) {
	b.Run("n"+itoa(fed3Agents), func(b *testing.B) {
		startFedBenchTree(b, fed3Rows, fed3CabsPerRow).run(b, "CycleFanoutFed3", fed3Agents)
	})
}
