// Fan-out benchmarks for the manager's concurrent actuation path: a real
// managerd.Server against N lightweight fake agents over faultnet, held in
// sustained red so every stepped cycle commands the entire fleet. They
// sweep N ∈ {128, 512, 1024, 4096} and persist their headline numbers to
// BENCH_fanout.json (merged across runs, sorted) so later PRs inherit a
// perf trajectory for the control plane.
//
//	BenchmarkCycleFanout     – one full control cycle incl. fan-out completion
//	BenchmarkStatusUnderLoad – Status() while the control loop is cycling
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/manager"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/wire"
)

// fanoutSweep is the fleet-size axis shared by both benchmarks. The
// 16384 point exists for the federated-vs-flat comparison: one flat
// manager over the whole fleet against BenchmarkCycleFanoutFed's 128
// cabinets of 128.
var fanoutSweep = []int{128, 512, 1024, 4096, 16384}

// benchFleet is a manager plus N connected fake agents. The agents send a
// hello and one busy sample, then only drain their read side — they never
// ack, so every cycle's red floor re-commands the full fleet and the
// benchmark measures a complete N-node fan-out per step.
type benchFleet struct {
	srv *managerd.Server
	nw  *faultnet.Network
}

func startBenchFleet(b *testing.B, agents int) *benchFleet {
	b.Helper()
	nw := faultnet.New(1)
	srv, err := managerd.New(managerd.Config{
		Listener:       nw.Listener(),
		Model:          power.TianheNode(),
		Policy:         policy.MPCC{},
		Tg:             3,
		ControlEvery:   time.Hour, // cycles driven explicitly via StepCycle
		Thresholds:     power.Thresholds{PL: 1, PH: 2},
		StaleAfter:     time.Hour,
		CommandTimeout: 5 * time.Second,
		HeartbeatEvery: -1,
		Shards:         128,
		FanoutWorkers:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	f := &benchFleet{srv: srv, nw: nw}
	b.Cleanup(func() {
		srv.Stop()
		nw.Close()
	})
	f.wireAgents(b, agents)
	f.warmRed(b)
	return f
}

// wireAgents connects n fake agents to the fleet's manager and waits for
// all of them to register. Shared with the federated benchmark, where
// each cabinet is one benchFleet.
func (f *benchFleet) wireAgents(b *testing.B, agents int) {
	b.Helper()
	for i := 0; i < agents; i++ {
		raw, err := f.nw.Dial(context.Background(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		c := wire.NewConn(raw)
		// Drain the read side before writing anything: the hello below
		// makes the manager answer with a codec-negotiation reply, and a
		// faultnet link buffers 512 B — replies nobody reads would soon
		// block the manager's writes. Real agents read concurrently too.
		go func() { // drain replies/commands/pings so writes never block
			var e wire.Envelope // reused like a real agent's hot read loop
			for {
				if err := c.RecvInto(&e); err != nil {
					return
				}
			}
		}()
		// Advertise binary support like a real agent: the manager's
		// command fan-out to this fleet then runs on the negotiated
		// binary codec (the drain loop above auto-detects per frame).
		if err := c.Send(wire.Envelope{
			Type: wire.KindHello, Node: i, MaxLevel: 9, Level: 9,
			Codecs: []string{wire.CodecBinary},
		}); err != nil {
			b.Fatal(err)
		}
		if err := c.Send(wire.SampleEnvelope(manager.AgentReading{
			ID: node.ID(i), Level: 9, MaxLevel: 9,
			Delta: procfs.Delta{Interval: time.Second, CPUUtil: 0.8,
				MemUsed: 24 << 30, MemTotal: 48 << 30},
		})); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for f.srv.Status().Agents != agents {
		if time.Now().After(deadline) {
			b.Fatalf("only %d of %d agents registered", f.srv.Status().Agents, agents)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warmRed runs warm-up cycles: absorb the last in-flight sample decodes,
// let the command/retry state reach steady state, and prove the fleet
// classifies red before timing starts. One cycle is not enough — the
// first few post-registration cycles pay cold caches and initial slice
// growth, and with testing.B's small adaptive b.N probes they would
// dominate the measurement.
func (f *benchFleet) warmRed(b *testing.B) {
	b.Helper()
	for i := 0; i < 5; i++ {
		f.srv.StepCycle()
	}
	if st := f.srv.Status(); st.RedCycles == 0 {
		b.Fatalf("bench fleet not in sustained red: %+v", st)
	}
}

// BenchmarkCycleFanout measures one full control cycle — sense, classify,
// Algorithm 1, and the complete N-node command fan-out — per iteration.
func BenchmarkCycleFanout(b *testing.B) {
	for _, n := range fanoutSweep {
		n := n
		b.Run("n"+itoa(n), func(b *testing.B) {
			f := startBenchFleet(b, n)
			b.ReportAllocs()
			ms := newMemTrack()
			b.ResetTimer()
			var fanout time.Duration
			for i := 0; i < b.N; i++ {
				fanout += f.srv.StepCycle()
			}
			b.StopTimer()
			allocsOp, bytesOp := ms.perOp(b.N)
			st := f.srv.Status()
			fanoutUS := fanout.Microseconds() / int64(b.N)
			b.ReportMetric(float64(fanoutUS), "fanout_us/op")
			recordBench(benchEntry{
				Bench: "CycleFanout", Agents: n,
				NsPerOp:       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				AllocsPerOp:   allocsOp,
				BytesPerOp:    bytesOp,
				FanoutUS:      fanoutUS,
				MaxFanoutUS:   st.MaxFanoutMicros,
				CoalescedCmds: st.CoalescedCmds,
			})
		})
	}
}

// BenchmarkStatusUnderLoad measures Status() — the powctl/observability
// read path — while the control loop is continuously fanning out to the
// fleet, pinning the cost of the shard sweep under actuation contention.
func BenchmarkStatusUnderLoad(b *testing.B) {
	for _, n := range fanoutSweep {
		n := n
		b.Run("n"+itoa(n), func(b *testing.B) {
			f := startBenchFleet(b, n)
			b.ReportAllocs()
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				for !stop.Load() {
					f.srv.StepCycle()
				}
			}()
			ms := newMemTrack()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = f.srv.Status()
			}
			b.StopTimer()
			allocsOp, bytesOp := ms.perOp(b.N)
			stop.Store(true)
			<-done
			recordBench(benchEntry{
				Bench: "StatusUnderLoad", Agents: n,
				NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				AllocsPerOp: allocsOp,
				BytesPerOp:  bytesOp,
			})
		})
	}
}

// ---------------------------------------------------------------------
// BENCH_fanout.json persistence.

// benchEntry is one benchmark outcome persisted to BENCH_fanout.json.
type benchEntry struct {
	Bench         string  `json:"bench"`
	Agents        int     `json:"agents"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp    float64 `json:"bytes_per_op,omitempty"`
	FanoutUS      int64   `json:"fanout_us,omitempty"`
	MaxFanoutUS   int64   `json:"max_fanout_us,omitempty"`
	CoalescedCmds int     `json:"coalesced_cmds,omitempty"`
}

// memTrack snapshots process-wide allocation counters so benchmarks can
// persist allocs/op alongside ns/op. The window spans every goroutine —
// for the fan-out benchmarks that is the point: sender goroutines and
// frame decodes are the cost being guarded, not just the caller's stack.
type memTrack struct{ m runtime.MemStats }

func newMemTrack() *memTrack {
	t := &memTrack{}
	runtime.ReadMemStats(&t.m)
	return t
}

func (t *memTrack) perOp(n int) (allocs, bytes float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-t.m.Mallocs) / float64(n),
		float64(after.TotalAlloc-t.m.TotalAlloc) / float64(n)
}

var (
	benchMu      sync.Mutex
	benchResults []benchEntry
)

func recordBench(e benchEntry) {
	benchMu.Lock()
	benchResults = append(benchResults, e)
	benchMu.Unlock()
}

// writeBenchJSON merges this run's entries over any existing
// BENCH_fanout.json (newer result for the same bench/agents pair wins),
// sorts, and writes the file back. No-op when no benchmark ran.
func writeBenchJSON() {
	benchMu.Lock()
	defer benchMu.Unlock()
	if len(benchResults) == 0 {
		return
	}
	const path = "BENCH_fanout.json"
	merged := map[[2]interface{}]benchEntry{}
	var prior []benchEntry
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &prior)
	}
	for _, e := range append(prior, benchResults...) {
		merged[[2]interface{}{e.Bench, e.Agents}] = e
	}
	out := make([]benchEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Agents < out[j].Agents
	})
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, append(raw, '\n'), 0o644)
}

func TestMain(m *testing.M) {
	code := m.Run()
	writeBenchJSON()
	os.Exit(code)
}
