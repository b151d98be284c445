package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agentd"
	"repro/internal/budget"
	"repro/internal/faultnet"
	"repro/internal/manager"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/tier"
	"repro/internal/units"
	"repro/internal/wire"
	jobs "repro/internal/workload"
)

// Probes are isolated timed loops over one layer's public functions, with
// inputs shaped like the workloads'. Each is the layer's price in the
// linear regime: nothing else runs beside it.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink float64

// timeSelf calls fn in growing batches until budget has elapsed and
// returns the mean of the durations fn reports, in nanoseconds.
func timeSelf(budget time.Duration, fn func() time.Duration) float64 {
	var sum time.Duration
	calls := 0
	for batch := 1; sum < budget; batch *= 2 {
		for i := 0; i < batch; i++ {
			sum += fn()
		}
		calls += batch
	}
	return float64(sum) / float64(calls)
}

// timeLoop is timeSelf for a call measured whole. Batches are timed as one
// interval so that cheap calls are not dominated by the clock reads.
func timeLoop(budget time.Duration, fn func()) float64 {
	var sum time.Duration
	calls := 0
	for batch := 1; sum < budget; batch *= 2 {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		sum += time.Since(t)
		calls += batch
	}
	return float64(sum) / float64(calls)
}

// loopRW replays data forever on Read and discards writes: a peer that is
// never the bottleneck, for pricing the codec alone through wire.Conn.
type loopRW struct {
	data []byte
	off  int
}

func (l *loopRW) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}
func (l *loopRW) Write(p []byte) (int, error) { return len(p), nil }
func (l *loopRW) Close() error                { return nil }

type bufRW struct{ bytes.Buffer }

func (*bufRW) Close() error { return nil }

func probeReadings(n, maxLevel int, seed int64) []manager.AgentReading {
	w := workload{topology: topology{agentsPerCabinet: n}, lo: [2]float64{0.55, 0.85}, hi: [2]float64{0.65, 1}}
	in := w.generate(seed)
	out := make([]manager.AgentReading, n)
	for g := range out {
		out[g] = manager.AgentReading{
			ID: node.ID(g), Level: maxLevel, MaxLevel: maxLevel,
			Delta: in.delta(g, 0.5), Job: jobs.JobID(in.job[g]),
		}
	}
	return out
}

func probeWire(m map[string]float64, b time.Duration) error {
	levels := make([]replica.Level, 32)
	for i := range levels {
		levels[i] = replica.Level{Node: 16 * i, Level: i % 10}
	}
	entry, err := json.Marshal(replica.Entry{Seq: 7001, Epoch: 1, Cycle: 7001, Levels: levels})
	if err != nil {
		return err
	}
	sample := wire.SampleEnvelope(probeReadings(1, 9, 1)[0])
	frames := map[string]wire.Envelope{
		"command":        {Type: wire.KindCommand, Node: 517, Level: 3, Seq: 123456},
		"sample":         sample,
		"ack":            {Type: wire.KindAck, Node: 517, Level: 3, Seq: 123456},
		"cab_budget":     {Type: wire.KindCabBudget, Node: 3, Seq: 9912, BudgetW: 31250.5, PHW: 32812.9},
		"cab_report":     {Type: wire.KindCabReport, Node: 3, Seq: 9912, PowerW: 28114.2, DemandW: 30881.7, BudgetW: 31250.5, PHW: 32812.9, Agents: 128, Healthy: 128},
		"journal_append": {Type: wire.KindJournalAppend, Seq: 7001, Epoch: 1, Entry: entry},
	}
	encoded := map[string][]byte{}
	for kind, env := range frames {
		env := env
		buf, err := wire.AppendFrame(nil, &env)
		if err != nil {
			return fmt.Errorf("encode %s: %w", kind, err)
		}
		encoded[kind] = buf
	}
	for _, kind := range []string{"command", "sample", "ack", "cab_budget", "journal_append"} {
		env := frames[kind]
		buf := make([]byte, 0, 256)
		m["wire.encode_ns."+kind] = timeLoop(b, func() { buf, _ = wire.AppendFrame(buf[:0], &env) })
	}
	for _, kind := range []string{"command", "sample", "ack", "cab_report", "journal_append"} {
		frame := encoded[kind]
		var env wire.Envelope
		var derr error
		m["wire.decode_ns."+kind] = timeLoop(b, func() { derr = wire.DecodeFrame(frame, &env) })
		if derr != nil {
			return fmt.Errorf("decode %s: %w", kind, derr)
		}
	}
	m["wire.frame_bytes.command"] = float64(len(encoded["command"]))
	m["wire.frame_bytes.sample"] = float64(len(encoded["sample"]))

	// The JSON reference codec, through the same Conn the daemons use.
	line, err := json.Marshal(sample)
	if err != nil {
		return err
	}
	conn := wire.NewConn(&loopRW{data: append(line, '\n')})
	var env wire.Envelope
	var cerr error
	m["wire.json_encode_ns.sample"] = timeLoop(b, func() { cerr = conn.Send(sample) })
	if cerr != nil {
		return cerr
	}
	m["wire.json_decode_ns.sample"] = timeLoop(b, func() { cerr = conn.RecvInto(&env) })
	if cerr != nil {
		return cerr
	}

	// Allocations of one binary sample frame, sent and received.
	bin := wire.NewConn(&bufRW{})
	bin.EnableBinary()
	frame := func() {
		if cerr == nil {
			cerr = bin.Send(sample)
		}
		if cerr == nil {
			cerr = bin.RecvInto(&env)
		}
	}
	frame() // grow the reused buffers first
	const frameRuns = 2000
	a0, _ := heapAllocs()
	for i := 0; i < frameRuns; i++ {
		frame()
	}
	a1, _ := heapAllocs()
	m["wire.allocs_per_frame"] = float64(a1-a0) / frameRuns
	return cerr
}

// streamFrames prices one command frame from SendBatch to RecvInto over an
// established connection pair: frames are sent in bursts and a burst ends
// when the reader has seen its last frame, so a transport that buffers
// (TCP) is charged for delivery, not only for the write.
func streamFrames(client, server net.Conn, b time.Duration) (float64, error) {
	w, r := wire.NewConn(client), wire.NewConn(server)
	w.EnableBinary()
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var env wire.Envelope
		for r.RecvInto(&env) == nil {
			got.Add(1)
		}
	}()
	const burst = 64
	batch := []wire.Envelope{{Type: wire.KindCommand, Node: 517, Level: 0, Seq: 1}}
	var sent int64
	var serr error
	ns := timeSelf(b, func() time.Duration {
		t := time.Now()
		for i := 0; i < burst && serr == nil; i++ {
			batch[0].Seq++
			serr = w.SendBatch(batch)
		}
		sent += burst
		if serr == nil {
			serr = spinUntil("frames delivered", func() bool { return got.Load() >= sent })
		}
		return time.Since(t)
	}) / burst
	w.Close()
	r.Close()
	<-done
	return ns, serr
}

func probeTransport(m map[string]float64, b time.Duration) error {
	nw := faultnet.New(1)
	defer nw.Close()
	ln := nw.Listener()
	client, err := nw.Dial(context.Background(), 0)
	if err != nil {
		return err
	}
	server, err := ln.Accept()
	if err != nil {
		return err
	}
	if m["faultnet.frame_ns"], err = streamFrames(client, server, b); err != nil {
		return err
	}

	// The same frames over one loopback TCP connection, for reference. A
	// sandbox without loopback reports 0 rather than failing the run.
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m["faultnet.tcp_ref_frame_ns"] = 0
		return nil
	}
	defer tln.Close()
	client, err = net.Dial("tcp", tln.Addr().String())
	if err != nil {
		return err
	}
	server, err = tln.Accept()
	if err != nil {
		client.Close()
		return err
	}
	m["faultnet.tcp_ref_frame_ns"], err = streamFrames(client, server, b)
	return err
}

// probeAgent prices command → apply → ack through one real passive agent,
// with the bench playing the manager's end of the connection.
func probeAgent(m map[string]float64, b time.Duration) error {
	nw := faultnet.New(1)
	defer nw.Close()
	ln := nw.Listener()
	a, err := agentd.New(agentd.Config{
		SampleEvery: never, TickEvery: never, Passive: true, MaxLevel: 1, InitialLevel: 1,
		Apply: func(level int) (int, error) { return level, nil },
		Dial:  func(ctx context.Context) (net.Conn, error) { return nw.Dial(ctx, 0) },
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	raw, err := ln.Accept()
	if err != nil {
		return err
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	if _, err := conn.Recv(); err != nil { // the agent's hello
		return err
	}
	if err := conn.Send(wire.Envelope{Type: wire.KindHello, Codec: wire.CodecBinary}); err != nil {
		return err
	}
	conn.EnableBinary()
	var env wire.Envelope
	var seq uint64
	var rerr error
	m["agentd.command_rtt_us"] = timeLoop(b, func() {
		seq++
		if rerr == nil {
			rerr = conn.Send(wire.Envelope{Type: wire.KindCommand, Level: int(seq & 1), Seq: seq})
		}
		for rerr == nil {
			if rerr = conn.RecvInto(&env); env.Type == wire.KindAck && env.Seq == seq {
				break
			}
		}
	}) / 1e3
	return rerr
}

type noopActuator struct{}

func (noopActuator) SetNodeLevel(node.ID, int) error { return nil }

// probeControlLaw prices the sense-to-decision layers at 1024 nodes:
// formula (1), the snapshot builder, Algorithm 1 in each state with a
// no-op actuator, and target selection per policy.
func probeControlLaw(m map[string]float64, b time.Duration) error {
	const n, top = 1024, 9
	model := power.TianheNode()
	readings := probeReadings(n, top, 1)
	var p units.Watts
	for _, r := range readings {
		p += model.Estimate(r.Delta, r.Level)
	}
	i := 0
	m["power.estimate_ns"] = timeLoop(b, func() {
		r := &readings[i%n]
		sink += float64(model.Estimate(r.Delta, r.Level))
		i++
	})
	builder := manager.NewBuilder(model)
	var snap *policy.Snapshot
	m["manager.build_us.n1024"] = timeLoop(b, func() { snap = builder.Build(p, 0.97*p, readings) }) / 1e3

	for state, thr := range map[string]power.Thresholds{
		"red":    {PL: 0.8 * p, PH: 0.9 * p},
		"yellow": {PL: 0.97 * p, PH: 1.1 * p},
		"green":  {PL: 1.1 * p, PH: 1.2 * p},
	} {
		mgr, err := manager.New(manager.Config{Tg: 2, Policy: policy.MPCC{}})
		if err != nil {
			return err
		}
		thr := thr
		m["manager.cycle_us."+state+".n1024"] = timeLoop(b, func() {
			_, actions, _ := mgr.Cycle(p, thr, snap, noopActuator{})
			sink += float64(len(actions))
		}) / 1e3
	}
	for _, name := range []string{"mpc-c", "hri-c", "bfp"} {
		pol, err := policy.New(name, nil)
		if err != nil {
			return err
		}
		m["policy.select_us."+name+".n1024"] = timeLoop(b, func() { sink += float64(len(pol.Select(snap))) }) / 1e3
	}
	return nil
}

func probeBudget(m map[string]float64, b time.Duration) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		n    int
		div  budget.Division
	}{
		{"budget.divide_us.n8", 8, budget.Proportional},
		{"budget.divide_us.n128", 128, budget.Proportional},
		{"budget.divide_us.n1024", 1024, budget.Proportional},
		{"budget.divide_us.fair.n128", 128, budget.FairShare},
	} {
		ds := make([]budget.Demand, c.n)
		total := 0.0
		for i := range ds {
			ds[i] = budget.Demand{ID: i, Want: 20000 + 15000*rng.Float64(), Floor: 12000, Cap: 40000}
			total += ds[i].Want
		}
		div := c.div
		m[c.name] = timeLoop(b, func() { sink += budget.Divide(0.8*total, div, ds)[0] }) / 1e3
	}
}

// probeGrantor prices one tier hop: Grantor.Cycle until the last of n
// scripted children has read its grant.
func probeGrantor(m map[string]float64, b time.Duration, name string, n int) error {
	nw := faultnet.New(1)
	defer nw.Close()
	ln := nw.Listener()
	g := tier.NewGrantor(tier.GrantorConfig{
		Division: budget.Proportional, StaleAfter: never, Reg: obs.NewRegistry(),
		Band: func(time.Time) power.Thresholds { return power.Thresholds{PL: 1e6, PH: 1.05e6} },
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := wire.NewConn(raw)
				if first, err := conn.Recv(); err == nil {
					g.Serve(conn, first)
				}
			}()
		}
	}()
	var read atomic.Int64
	conns := make([]*wire.Conn, n)
	defer func() {
		ln.Close()
		g.CloseAll()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		wg.Wait()
	}()
	for i := range conns {
		raw, err := nw.Dial(context.Background(), uint64(i))
		if err != nil {
			return err
		}
		c := wire.NewConn(raw)
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var env wire.Envelope
			for c.RecvInto(&env) == nil {
				if env.Type == wire.KindCabBudget {
					read.Add(1)
				}
			}
		}()
		w := 20000 + 100*float64(i)
		if err := c.Send(wire.Envelope{Type: wire.KindCabReport, Node: i, PowerW: w, DemandW: w, Codecs: []string{wire.CodecBinary}}); err != nil {
			return err
		}
	}
	// A child is grantable once Serve has answered its subscribe and
	// registered the connection, which is when its codec becomes known.
	err := pollUntil("children subscribed", func() bool {
		states := g.States()
		for _, cs := range states {
			if cs.Codec == "" {
				return false
			}
		}
		return len(states) == n
	})
	if err != nil {
		return err
	}
	var werr error
	m[name] = timeLoop(b, func() {
		want := read.Load() + int64(n)
		g.Cycle()
		if werr == nil {
			werr = spinUntil("grants read", func() bool { return read.Load() >= want })
		}
	}) / 1e3
	return werr
}

// probeReplica prices the journal: one cycle's commit with 32 changed
// levels to a file and to memory, and publish → applied on one follower.
func probeReplica(m map[string]float64, b time.Duration, dir string) error {
	commit := func(st *replica.Store, cycle int) (replica.Entry, time.Duration) {
		for j := 0; j < 32; j++ {
			st.SetLevel(16*j, cycle%10)
		}
		t := time.Now()
		e, _ := st.CommitCycle(cycle, 1000, 1100, nil)
		return e, time.Since(t)
	}
	for name, path := range map[string]string{
		"replica.commit_us":     filepath.Join(dir, "probe-journal.json"),
		"replica.commit_us.mem": "",
	} {
		st, err := replica.Open(path)
		if err != nil {
			return err
		}
		cycle := 0
		m[name] = timeSelf(b, func() time.Duration {
			cycle++
			_, d := commit(st, cycle)
			return d
		}) / 1e3
		if err := st.Close(); err != nil {
			return err
		}
	}

	leader, err := replica.Open("")
	if err != nil {
		return err
	}
	copyStore, err := replica.Open("")
	if err != nil {
		return err
	}
	pub := replica.NewPublisher(leader, 5*time.Second)
	nw := faultnet.New(1)
	ln := nw.Listener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(raw)
		first, err := conn.Recv()
		if err != nil {
			conn.Close()
			return
		}
		if first.Advertises(wire.CodecBinary) {
			conn.EnableBinary()
		}
		pub.Serve(conn, first.Seq)
	}()
	f, err := replica.NewFollower(replica.FollowerConfig{
		Store: copyStore,
		Dial:  func(ctx context.Context) (net.Conn, error) { return nw.Dial(ctx, 0) },
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		_ = f.Run(ctx)
	}()
	defer func() {
		cancel()
		pub.Close()
		nw.Close()
		<-followed
		<-served
	}()
	err = pollUntil("follower subscribed", func() bool {
		conns, _ := pub.Stats()
		return conns == 1
	})
	if err != nil {
		return err
	}
	cycle := 0
	var werr error
	m["replica.publish_to_ack_us"] = timeSelf(b, func() time.Duration {
		cycle++
		e, _ := commit(leader, cycle)
		t := time.Now()
		pub.Publish(e)
		if werr == nil {
			werr = spinUntil("entry applied", func() bool { return copyStore.Seq() >= e.Seq })
		}
		return time.Since(t)
	}) / 1e3
	return werr
}

// probeObs prices the instruments themselves, on a real manager's
// registry so the render walks the instrument set a daemon carries.
func probeObs(m map[string]float64, b time.Duration) error {
	srv, err := managerd.New(managerd.Config{
		Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 2, ControlEvery: never,
		Thresholds: power.Thresholds{PL: 1, PH: 2},
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	reg := srv.Obs()
	c, g, h := reg.Counter("probe_counter"), reg.Gauge("probe_gauge"), reg.Histogram("probe_histogram")
	v := 0.0
	m["obs.counter_inc_ns"] = timeLoop(b, c.Inc)
	m["obs.gauge_set_ns"] = timeLoop(b, func() { v++; g.Set(v) })
	m["obs.histogram_observe_ns"] = timeLoop(b, func() { v++; h.Observe(v) })
	rec := obs.NewCycleRecorder(0, reg)
	m["obs.cycle_span_ns"] = timeLoop(b, func() {
		sp := rec.Begin()
		for _, st := range obs.Stages() {
			sp.Stage(st, time.Millisecond, "")
		}
		sp.End()
	})
	m["obs.prometheus_render_us"] = timeLoop(b, func() { reg.WritePrometheus(io.Discard) }) / 1e3
	return nil
}

// probeRedSweep is the fan-out curve of ROADMAP item 1 as numbers: the red
// cycle of flat-spike, per agent, at four fleet sizes, each traced on a rig
// of its own for the given time.
func probeRedSweep(m map[string]float64, seconds float64, small bool, seed int64) error {
	for _, n := range []int{128, 1024, 4096, 16384} {
		w := workloads(small)[0]
		if !small {
			w.agentsPerCabinet = n
			w.expect = []expect{{"red", n}, {"green", 0}, {"green", n}}
		}
		d, err := setUp(&w, seed, -1, 2)
		if err != nil {
			return err
		}
		layers, err := d.traced(seconds, 0)
		d.rig.stop()
		if err == nil {
			err = d.firstErr
		}
		if err != nil {
			return fmt.Errorf("red sweep n%d: %w", n, err)
		}
		m[fmt.Sprintf("managerd.red_cycle_us_per_agent.n%d", n)] = layers["managerd.cycle_us.red"] / float64(w.agents())
	}
	return nil
}

// runProbes runs every probe with budget b per timed loop and ten times b
// per size of the red sweep.
func runProbes(b time.Duration, small bool, seed int64) (map[string]float64, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}
	if err := probeWire(m, b); err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	if err := probeTransport(m, b); err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	if err := probeAgent(m, b); err != nil {
		return nil, fmt.Errorf("agent probe: %w", err)
	}
	if err := probeControlLaw(m, b); err != nil {
		return nil, fmt.Errorf("control-law probe: %w", err)
	}
	probeBudget(m, b)
	for name, n := range map[string]int{"tier.grantor_cycle_us.n8": 8, "tier.grantor_cycle_us.n128": 128} {
		if err := probeGrantor(m, b, name, n); err != nil {
			return nil, fmt.Errorf("grantor probe: %w", err)
		}
	}
	if err := probeReplica(m, b, dir); err != nil {
		return nil, fmt.Errorf("replica probe: %w", err)
	}
	if err := probeObs(m, b); err != nil {
		return nil, fmt.Errorf("obs probe: %w", err)
	}
	if err := probeRedSweep(m, 10*b.Seconds(), small, seed); err != nil {
		return nil, err
	}
	return m, nil
}
