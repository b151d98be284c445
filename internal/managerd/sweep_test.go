package managerd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
	"repro/internal/wire"
)

// Tests for the node record (store.go) and the cycle's one sweep over it.

// recordCount is how many node records the table stores.
func recordCount(s *Server) int {
	n := 0
	for _, sh := range s.nodes.shards {
		sh.mu.Lock()
		for _, chunk := range sh.chunks {
			n += len(chunk)
		}
		sh.mu.Unlock()
	}
	return n
}

// putRec makes r.ID's record in sh through the one constructor, connected
// over a pipe nothing reads, with r as its reading as of at.
func putRec(t testing.TB, sh *shard, r manager.AgentReading, at time.Time) *nodeRec {
	server, client := net.Pipe()
	t.Cleanup(func() { client.Close() })
	rec := sh.add(r.ID)
	rec.ac = &agentConn{id: r.ID, conn: wire.NewConn(server), maxLevel: r.MaxLevel}
	rec.last, rec.lastAt = r, at
	return rec
}

// journalLevel is the journal mirror's level for id, or -1.
func journalLevel(s *Server, id node.ID) int {
	for _, l := range s.journal.State().Levels {
		if l.Node == int(id) {
			return l.Level
		}
	}
	return -1
}

// readingIDs lists the nodes of a part's collected readings, sorted.
func readingIDs(rs []manager.AgentReading) []node.ID {
	out := []node.ID{}
	for _, r := range rs {
		out = append(out, r.ID)
	}
	slices.Sort(out)
	return out
}

// stateIDs lists the nodes of a snapshot's node states, sorted.
func stateIDs(ns []policy.NodeState) []node.ID {
	out := []node.ID{}
	for _, n := range ns {
		out = append(out, n.ID)
	}
	slices.Sort(out)
	return out
}

// TestSweepOneShard builds one shard by hand, one record per case the
// sweep distinguishes, and runs the sweep under the control loop's cut
// (t0 − StaleAfter) and under the later cut of an external driver that
// started pushing just before t0. The two must differ in readings (the
// walk's collected ones: the daemon is externally controlled), candidates
// (the policy snapshot) and stale, and in nothing else.
func TestSweepOneShard(t *testing.T) {
	const (
		cycleN = 10
		top    = 9
	)
	type outcome struct {
		readings, candidates, adopts []node.ID
		stale                        int
		resends                      map[node.ID]resend
		tallies                      [4]int
		drifted                      int
	}
	run := func(t *testing.T, external bool) (*Server, outcome, uint64) {
		srv, err := New(Config{
			Model:        power.TianheNode(),
			Policy:       policy.MPCC{},
			Tg:           3,
			ControlEvery: time.Hour,
			Thresholds:   power.Thresholds{PL: 1e6, PH: 2e6},
			StaleAfter:   100 * time.Millisecond,
			LostAfter:    time.Second,
			Shards:       1,
			// The walk collects its fresh readings for an external driver.
			ExternalControl: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		t0 := time.Now()
		sh := srv.nodes.shards[0]
		put := func(id node.ID, level int, age time.Duration, cmd cmdState, state healthState) {
			rec := putRec(t, sh, manager.AgentReading{ID: id, Level: level, MaxLevel: top}, t0.Add(-age))
			rec.cmd = cmd
			rec.health = healthRec{state: state, quarantinedAt: t0}
		}
		inFlight := cmdState{issued: true, level: 5, seq: 41, sentCycle: cycleN - 1}
		acked := func(seq uint64, sent int) cmdState {
			return cmdState{issued: true, level: 4, seq: seq, acked: true, sentCycle: sent}
		}
		// 1 fresh; 2 stale by the wall clock; 3 disconnected, with a
		// command; 4 quarantined and fresh, a command in flight; 5 hello
		// only, before the driver's cut; 6 below top, never commanded; 7
		// unacked from last cycle; 8 acked, then drifted; 9 drifted inside
		// the grace, and sampled before the driver's cut.
		put(1, top, 0, cmdState{}, healthHealthy)
		put(2, top, 200*time.Millisecond, cmdState{}, healthHealthy)
		away := sh.add(3)
		away.cmd, away.health.state = acked(40, 0), healthLost
		put(4, top, 0, inFlight, healthQuarantined)
		put(5, top, 50*time.Millisecond, cmdState{}, healthHealthy)
		put(6, 3, 0, cmdState{}, healthHealthy)
		put(7, top, 0, inFlight, healthHealthy)
		put(8, top, 0, acked(42, cycleN-2), healthHealthy)
		put(9, top, 50*time.Millisecond, acked(43, cycleN-1), healthHealthy)
		srv.seq.Store(100)

		cut := t0.Add(-srv.cfg.StaleAfter)
		if external {
			cut = t0.Add(-10 * time.Millisecond)
		}
		parts := srv.sweep(cycleN, t0, cut)
		if len(parts) != 1 {
			t.Fatalf("%d parts for one shard", len(parts))
		}
		srv.sensed(parts, nil, t0)
		g := parts[0]
		out := outcome{
			readings: readingIDs(g.readings), candidates: stateIDs(srv.snap.Nodes), stale: g.stale,
			adopts:  append([]node.ID{}, g.adopts...),
			resends: map[node.ID]resend{},
			tallies: [4]int{sh.nHealthy, sh.nStale, sh.nLost, sh.nQuar},
			drifted: sh.drifted,
		}
		sort.Slice(out.adopts, func(a, b int) bool { return out.adopts[a] < out.adopts[b] })
		for _, r := range g.resends {
			out.resends[r.ac.id] = r
		}
		return srv, out, srv.seq.Load()
	}

	wallSrv, wall, wallSeq := run(t, false)
	_, ext, extSeq := run(t, true)

	// What the cut decides.
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"wall readings", wall.readings, []node.ID{1, 4, 5, 6, 7, 8, 9}},
		{"wall candidates", wall.candidates, []node.ID{1, 5, 6, 7, 8, 9}},
		{"wall stale", wall.stale, 1},
		{"external readings", ext.readings, []node.ID{1, 4, 6, 7, 8}},
		{"external candidates", ext.candidates, []node.ID{1, 6, 7, 8}},
		{"external stale", ext.stale, 3},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// What it must not: lifecycle, health and drift.
	for name, o := range map[string]outcome{"wall": wall, "external": ext} {
		if want := []node.ID{6, 7, 8, 9}; !reflect.DeepEqual(o.adopts, want) {
			t.Errorf("%s adopts = %v, want %v", name, o.adopts, want)
		}
		if want := [4]int{6, 1, 1, 1}; o.tallies != want {
			t.Errorf("%s healthy/stale/lost/quarantined = %v, want %v", name, o.tallies, want)
		}
		if o.drifted != 4 {
			t.Errorf("%s drifted = %d, want 4 (nodes 4, 7, 8, 9)", name, o.drifted)
		}
		if len(o.resends) != 2 {
			t.Errorf("%s re-sends = %v, want nodes 7 and 8 only (4 is quarantined, 9 inside the grace)", name, o.resends)
		}
		if r := o.resends[7]; r.level != 5 || r.seq != 41 {
			t.Errorf("%s retry = level %d seq %d, want level 5 under the same seq 41", name, r.level, r.seq)
		}
		if r := o.resends[8]; r.level != 4 || r.seq != 101 {
			t.Errorf("%s reconcile = level %d seq %d, want level 4 under the fresh seq 101", name, r.level, r.seq)
		}
	}
	if wallSeq != 101 || extSeq != 101 {
		t.Errorf("seq after sweep = %d / %d, want one fresh seq each", wallSeq, extSeq)
	}
	if got, want := commandedLevel(wallSrv, 6), 3; got != want || journalLevel(wallSrv, 6) != want {
		t.Errorf("adopted node 6: command %d, journal %d, want %d in both", got, journalLevel(wallSrv, 6), want)
	}
	if st := wallSrv.Status(); st.CommandRetries != 1 || st.Reconciles != 1 {
		t.Errorf("retries = %d, reconciles = %d, want 1 and 1", st.CommandRetries, st.Reconciles)
	}
}

// TestExternalCycleRunsTheLoopsSweep pins the two consequences of the
// external driver running the control loop's own sweep: a node that
// hellos below its top level is adopted, and a quarantined node's sample
// is absent from Readings yet counted in last_power_w.
func TestExternalCycleRunsTheLoopsSweep(t *testing.T) {
	srv := startExternalServer(t)
	low := dialFakeAgent(t, srv.Addr(), 1, 3, 9)
	// Bounce node 2 up to the default flap limit; the last connect sticks.
	var flapper *wire.Conn
	for i := 0; i < 6; i++ {
		if flapper != nil {
			flapper.Close()
		}
		flapper = dialFakeAgent(t, srv.Addr(), 2, 9, 9)
	}
	waitFor(t, 5*time.Second, "node 2 quarantined and connected", func() bool {
		st := srv.Status()
		return st.QuarantinedNodes == 1 && st.Agents == 2 && currentConn(srv, 2) != nil
	})

	since := time.Now()
	for _, s := range []struct {
		c   *wire.Conn
		env wire.Envelope
	}{{low, busySample(1, 3)}, {flapper, busySample(2, 9)}} {
		if err := s.c.Send(s.env); err != nil {
			t.Fatal(err)
		}
	}
	// A sample sent on one of node 2's superseded connections cannot
	// count: only the registered one is fed above.
	waitFor(t, 5*time.Second, "both samples accepted", func() bool { return srv.SamplesReceived() == 2 })

	cyc := srv.StartExternalCycle(since)
	if rs := cyc.Readings(); len(rs) != 1 || rs[0].ID != 1 || rs[0].Level != 3 {
		t.Errorf("readings = %+v, want node 1 at level 3 alone (node 2 is quarantined)", rs)
	}
	if got := commandedLevel(srv, 1); got != 3 || journalLevel(srv, 1) != 3 {
		t.Errorf("node 1 hello'd at 3 of 9: command %d, journal %d, want adopted at 3 in both", got, journalLevel(srv, 1))
	}
	if got := commandedLevel(srv, 2); got != -1 {
		t.Errorf("quarantined node 2 has command %d, want none", got)
	}
	model := power.TianheNode()
	s1, s2 := busySample(1, 3), busySample(2, 9)
	want := float64(model.Estimate(s1.Reading().Delta, 3) + model.Estimate(s2.Reading().Delta, 9))
	if got := srv.Status().LastPowerW; math.Abs(got-want) > 1e-6 {
		t.Errorf("last_power_w = %.3f, want %.3f (both nodes: a quarantined node's draw is real)", got, want)
	}
	if err := cyc.Finish(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRecordOutlivesConnection: the command and the connect history stay
// on the node's record across a disconnect, and however often the node
// redials there is one record.
func TestRecordOutlivesConnection(t *testing.T) {
	nw := faultnet.New(1)
	cfg := fanoutConfig(nw, 2*time.Second, power.Thresholds{PL: 1e6, PH: 2e6})
	cfg.Tg = 1 << 20   // no steady-green restore: the only commands are the ones below
	cfg.FlapLimit = -1 // the redials below are not a flap under test
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// serve acks every command at its level and reports them.
	serve := func(c *wire.Conn) <-chan wire.Envelope {
		cmds := make(chan wire.Envelope, 4) // at most the one command and its one re-send
		go func() {
			for {
				env, err := c.Recv()
				if err != nil {
					return
				}
				if env.Type == wire.KindCommand {
					_ = c.Send(wire.Envelope{Type: wire.KindAck, Node: 7, Seq: env.Seq, Level: env.Level})
					cmds <- env
				}
			}
		}()
		return cmds
	}
	recvCmd := func(cmds <-chan wire.Envelope, what string) wire.Envelope {
		t.Helper()
		select {
		case env := <-cmds:
			return env
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s", what)
			return wire.Envelope{}
		}
	}

	c := dialFaultAgent(t, nw, 7, 9, 9)
	cmds := serve(c)
	waitFor(t, 5*time.Second, "agent registered", func() bool { return srv.Status().Agents == 1 })
	if err := (actuator{srv, nil}).SetNodeLevel(7, 4); err != nil {
		t.Fatal(err)
	}
	first := recvCmd(cmds, "command")
	waitFor(t, 5*time.Second, "command acked", func() bool { return srv.UnackedCommands() == 0 })

	c.Close()
	waitFor(t, 5*time.Second, "connection torn down", func() bool { return currentConn(srv, 7) == nil })
	srv.StepCycle()
	if st := srv.Status(); st.LostNodes != 1 || st.Agents != 0 {
		t.Fatalf("after the drop: lost %d, agents %d, want 1 and 0", st.LostNodes, st.Agents)
	}
	if got := commandedLevel(srv, 7); got != 4 {
		t.Fatalf("command level %d after the drop, want 4 kept on the record", got)
	}

	// The node comes back at its top level (a reboot): the recorded
	// command is reconciled, two cycles after it was sent.
	cmds = serve(dialFaultAgent(t, nw, 7, 9, 9))
	waitFor(t, 5*time.Second, "redial registered", func() bool { return currentConn(srv, 7) != nil })
	srv.StepCycle()
	again := recvCmd(cmds, "reconcile re-send")
	if again.Level != 4 || again.Seq == first.Seq {
		t.Errorf("re-send = level %d seq %d, want level 4 under a seq other than %d", again.Level, again.Seq, first.Seq)
	}
	if st := srv.Status(); st.Reconciles != 1 || st.LostNodes != 0 {
		t.Errorf("reconciles %d, lost %d, want 1 and 0", st.Reconciles, st.LostNodes)
	}
	sh := srv.nodes.of(7)
	sh.mu.Lock()
	connects := len(sh.nodes[7].health.connects)
	sh.mu.Unlock()
	if connects != 2 {
		t.Errorf("connect history = %d, want 2", connects)
	}

	for i := 0; i < 100; i++ {
		dialFaultAgent(t, nw, 7, 4, 9)
	}
	waitFor(t, 10*time.Second, "redials handled", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.nodes[7].health.connects) == 102
	})
	if n := recordCount(srv); n != 1 {
		t.Errorf("%d records after 100 redials of one node, want 1", n)
	}
	if st := srv.Status(); st.Agents != 1 {
		t.Errorf("agents = %d after the redials, want 1", st.Agents)
	}
}

// degradeAll selects every degradable candidate and keeps the snapshots.
type degradeAll struct{ snapSpy }

func (p *degradeAll) Select(s *policy.Snapshot) []int {
	p.snapSpy.Select(s)
	var out []int
	for pos, n := range s.Nodes {
		if !n.AtLowest && !n.Idle {
			out = append(out, pos)
		}
	}
	return out
}

// TestRemoteLevelsAreClamped: a level a remote agent reports — in its
// hello, a sample or an ack, here over the JSON codec — is bounded to
// [0, maxLevel] before anything reads it, so the snapshot, the command and
// the journal never hold a level no node can be in. Unclamped, node 1's
// sample at -3 reads as degradable and the yellow cycle commands it to -4.
func TestRemoteLevelsAreClamped(t *testing.T) {
	const top = 9
	nw := faultnet.New(1)
	pol := &degradeAll{}
	cfg := fanoutConfig(nw, 2*time.Second, power.Thresholds{PL: 1, PH: 1e9}) // every cycle yellow
	cfg.Policy, cfg.Tg = pol, 1<<20
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	inRange := func(what string, id node.ID, level int) {
		t.Helper()
		if level < 0 || level > top {
			t.Errorf("node %d: %s holds level %d, outside [0,%d]", id, what, level, top)
		}
	}
	held := func(when string) {
		t.Helper()
		for id := node.ID(1); id <= 3; id++ {
			if l := commandedLevel(srv, id); l != -1 {
				inRange(when+": command", id, l)
			}
			for _, jl := range srv.journal.State().Levels {
				if jl.Node == int(id) {
					inRange(when+": journal", id, jl.Level)
				}
			}
			sh := srv.nodes.of(id)
			sh.mu.Lock()
			inRange(when+": last reading", id, sh.nodes[id].last.Level)
			sh.mu.Unlock()
		}
	}

	// Hellos below, above and inside the range; then samples likewise.
	conns := map[node.ID]*wire.Conn{1: dialFaultAgent(t, nw, 1, -2, top), 2: dialFaultAgent(t, nw, 2, 40, top), 3: dialFaultAgent(t, nw, 3, top, top)}
	waitFor(t, 5*time.Second, "agents registered", func() bool { return srv.Status().Agents == 3 })
	held("after the hellos")
	for id, level := range map[node.ID]int{1: -3, 2: 40, 3: top} {
		if err := conns[id].Send(busySample(int(id), level)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "samples accepted", func() bool { return srv.SamplesReceived() == 3 })
	srv.StepCycle()
	held("after the yellow cycle")
	if len(pol.got) != 1 || len(pol.got[0].Nodes) != 3 {
		t.Fatalf("the policy saw %d snapshots, want one of three nodes", len(pol.got))
	}
	for _, n := range pol.got[0].Nodes {
		inRange("snapshot", n.ID, n.Level)
		if want := map[node.ID]int{1: 0, 2: top, 3: top}[n.ID]; n.Level != want || n.AtLowest != (want == 0) {
			t.Errorf("node %d sensed at level %d (at lowest %v), want %d", n.ID, n.Level, n.AtLowest, want)
		}
	}
	if got := commandedLevel(srv, 1); got != 0 {
		t.Errorf("node 1 (reported -3, so at its floor) has command %d, want adopted at 0 and never degraded", got)
	}

	// Nodes 2 and 3 were degraded one level; they ack at levels out of range.
	for id, level := range map[node.ID]int{2: -7, 3: 40} {
		cmd, err := conns[id].Recv()
		if err != nil || cmd.Type != wire.KindCommand || cmd.Level != top-1 {
			t.Fatalf("node %d: received %+v (%v), want a command to level %d", id, cmd, err, top-1)
		}
		if err := conns[id].Send(wire.Envelope{Type: wire.KindAck, Node: int(id), Seq: cmd.Seq, Level: level}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "acks recorded", func() bool { return srv.UnackedCommands() == 0 })
	held("after the acks")
	if l2, l3 := commandedLevel(srv, 2), commandedLevel(srv, 3); l2 != 0 || l3 != top {
		t.Errorf("acks at -7 and 40 recorded as levels %d and %d, want 0 and %d", l2, l3, top)
	}
	// Each ack differs from the commanded level, so the journal must mirror
	// the acked one, not keep the command's.
	journal := map[int]int{}
	for _, jl := range srv.journal.State().Levels {
		journal[jl.Node] = jl.Level
	}
	if journal[2] != 0 || journal[3] != top {
		t.Errorf("journal holds levels %d and %d for nodes 2 and 3 after the acks, want 0 and %d", journal[2], journal[3], top)
	}
}

// TestSweepIsRepeatable: a sweep walks the storage in registration order,
// so two sweeps of an unchanged table visit the nodes in one order and sum
// their estimates in it — p and demand come out bit-identical. Ranging the
// index did neither (Go randomises where a map walk starts).
func TestSweepIsRepeatable(t *testing.T) {
	const fleet = 200
	rng := rand.New(rand.NewSource(9))
	srv, err := New(Config{
		Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
		Shards:          1,
		CoordinatorDial: func() (net.Conn, error) { return nil, net.ErrClosed }, // governed: demand is summed too
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	now := time.Now()
	for _, id := range rng.Perm(fleet) { // registration order is not ID order
		putRec(t, srv.nodes.shards[0], manager.AgentReading{ID: node.ID(id), Level: rng.Intn(10), MaxLevel: 9, Delta: randomDelta(rng)}, now)
	}

	type pass struct {
		p, demand units.Watts
		order     []node.ID
	}
	sweep := func(cycleN int) pass {
		g := srv.sweep(cycleN, now, time.Time{})[0]
		out := pass{p: g.p, demand: g.demand}
		for _, ns := range g.states {
			out.order = append(out.order, ns.ID)
		}
		return out
	}
	first := sweep(1)
	if len(first.order) != fleet || first.p <= 0 || first.demand < first.p {
		t.Fatalf("first sweep: %d states, p = %v, demand = %v", len(first.order), first.p, first.demand)
	}
	for c := 2; c <= 6; c++ {
		if again := sweep(c); !reflect.DeepEqual(again, first) {
			t.Fatalf("sweep %d differs from the first over an unchanged table:\n p %v vs %v\n demand %v vs %v\n same order: %v",
				c, again.p, first.p, again.demand, first.demand, reflect.DeepEqual(again.order, first.order))
		}
	}
}

// TestSweepIsWorkerCountInvariant: each of the sweep's workers builds its
// shards' parts on its own, so how many workers there are changes nothing
// the sweep decides. Identical 128-shard governed tables, one per worker
// count, mix every case the sweep distinguishes and are swept twice; every
// part, every shard's tallies and the journal mirror must equal the serial
// sweep's. A reconcile draws its fresh sequence number from the server's
// one counter in the order the workers reach it, so which node gets which
// is the one thing compared as a set.
func TestSweepIsWorkerCountInvariant(t *testing.T) {
	const (
		fleet  = 2000
		top    = 9
		cycleN = 10
		base   = 1 << 20 // the seq counter; every hand-made command's seq is below it
	)
	t0 := time.Now()
	build := func(workers int) *Server {
		srv, err := New(Config{
			Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
			ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
			StaleAfter: 100 * time.Millisecond, LostAfter: time.Second,
			Shards: 128, FanoutWorkers: workers,
			CoordinatorDial: func() (net.Conn, error) { return nil, net.ErrClosed }, // governed: demand is summed too
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		srv.seq.Store(base)
		rng := rand.New(rand.NewSource(33))
		for _, n := range rng.Perm(fleet) {
			id := node.ID(n)
			sh := srv.nodes.of(id)
			seq := uint64(rng.Intn(base))
			if rng.Intn(8) == 0 { // away: its record outlives the connection
				away := sh.add(id)
				away.cmd = cmdState{issued: true, level: 4, seq: seq, acked: true}
				away.health.state = healthLost
				continue
			}
			r := manager.AgentReading{ID: id, Level: top, MaxLevel: top, Delta: randomDelta(rng)}
			age, cmd, state := time.Duration(0), cmdState{}, healthHealthy
			switch rng.Intn(7) {
			case 0: // fresh, never commanded
			case 1: // stale
				age = 200 * time.Millisecond
			case 2: // quarantined, a command in flight
				cmd, state = cmdState{issued: true, level: 5, seq: seq, sentCycle: cycleN - 1}, healthQuarantined
			case 3: // unacked since last cycle: retried
				cmd = cmdState{issued: true, level: 5, seq: seq, sentCycle: cycleN - 1}
			case 4: // acked, then drifted: reconciled
				cmd = cmdState{issued: true, level: 4, seq: seq, acked: true, sentCycle: cycleN - 2}
			case 5: // at the floor, never commanded: adopted
				r.Level = 0
			case 6: // commanded to the floor and there: adopted again
				r.Level, cmd = 0, cmdState{issued: true, level: 0, seq: seq, acked: true, sentCycle: cycleN - 3}
			}
			rec := putRec(t, sh, r, t0.Add(-age))
			rec.cmd = cmd
			rec.health = healthRec{state: state, quarantinedAt: t0}
			if rng.Intn(2) == 0 { // a candidate last cycle: PrevEst carries
				rec.est, rec.estCycle = units.Watts(100+rng.Float64()*200), cycleN-1
			}
		}
		return srv
	}

	type sent struct {
		id    node.ID
		level int
		seq   uint64 // 0 for a reconcile's fresh one
	}
	type partView struct {
		p, demand uint64
		stale     int
		states    []policy.NodeState
		resends   []sent
		adopts    []node.ID
	}
	type view struct {
		parts   []partView
		tallies [][5]int
		fresh   []uint64 // the fresh seqs handed out, sorted
		journal []replica.Level
	}
	cut := t0.Add(-100 * time.Millisecond)
	sweep := func(srv *Server, c int) view {
		var v view
		for i, g := range srv.sweep(c, t0, cut) {
			pv := partView{
				p: math.Float64bits(float64(g.p)), demand: math.Float64bits(float64(g.demand)), stale: g.stale,
				states: append([]policy.NodeState{}, g.states...), adopts: append([]node.ID{}, g.adopts...),
			}
			for _, r := range g.resends {
				if r.seq > base {
					v.fresh = append(v.fresh, r.seq)
					r.seq = 0
				}
				pv.resends = append(pv.resends, sent{r.ac.id, r.level, r.seq})
			}
			v.parts = append(v.parts, pv)
			sh := srv.nodes.shards[i]
			sh.mu.Lock()
			v.tallies = append(v.tallies, [5]int{sh.nHealthy, sh.nStale, sh.nLost, sh.nQuar, sh.drifted})
			sh.mu.Unlock()
		}
		slices.Sort(v.fresh)
		v.journal = srv.journal.State().Levels
		return v
	}

	serial := build(1)
	want := []view{sweep(serial, cycleN), sweep(serial, cycleN+1)}
	first := want[0]
	var candidates, resends, adopts, stale int
	for _, pv := range first.parts {
		candidates += len(pv.states)
		resends += len(pv.resends)
		adopts += len(pv.adopts)
		stale += pv.stale
	}
	reconciled := len(first.fresh)
	if candidates < fleet/2 || stale == 0 || adopts == 0 || reconciled == 0 || resends <= reconciled || len(first.journal) == 0 {
		t.Fatalf("the table misses a case: %d candidates, %d stale, %d adopts, %d re-sends of which %d reconciles, %d journalled levels",
			candidates, stale, adopts, resends, reconciled, len(first.journal))
	}
	for k, seq := range first.fresh {
		if seq != base+1+uint64(k) {
			t.Fatalf("the reconciles drew seqs %v, want %d..%d once each", first.fresh, base+1, base+reconciled)
		}
	}
	if len(want[1].fresh) != reconciled {
		t.Fatalf("the second sweep re-sent %d reconciled commands, want their %d retries", len(want[1].fresh), reconciled)
	}

	for _, workers := range []int{2, 4, 16} {
		srv := build(workers)
		for k, c := range []int{cycleN, cycleN + 1} {
			got := sweep(srv, c)
			for i := range want[k].parts {
				if !reflect.DeepEqual(got.parts[i], want[k].parts[i]) {
					t.Fatalf("%d workers, sweep %d: shard %d's part differs from the serial sweep's:\n got %+v\nwant %+v",
						workers, k+1, i, got.parts[i], want[k].parts[i])
				}
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"shard tallies", got.tallies, want[k].tallies},
				{"fresh seqs", got.fresh, want[k].fresh},
				{"journal mirror", got.journal, want[k].journal},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%d workers, sweep %d: %s differ from the serial sweep's:\n got %v\nwant %v", workers, k+1, f.name, f.got, f.want)
				}
			}
		}
		if st, ref := srv.Status(), serial.Status(); st.CommandRetries != ref.CommandRetries || st.Reconciles != ref.Reconciles {
			t.Errorf("%d workers: %d retries, %d reconciles; serially %d and %d", workers, st.CommandRetries, st.Reconciles, ref.CommandRetries, ref.Reconciles)
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestSweepCallerRunsEveryShard: the sweep's caller is one of its own
// workers. On one P, with FanoutWorkers 4, the three helpers it starts
// cannot run until it parks, and it never does: it takes every shard
// itself, waits for no shard, and returns; the helpers, scheduled after,
// find the index spent and run nothing. A caller that waits for the
// workers it started parks on the first of them and runs no shard.
func TestSweepCallerRunsEveryShard(t *testing.T) {
	const shards = 64
	srv, err := New(Config{
		Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
		Shards: shards, FanoutWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if n := len(srv.nodes.shards); n != shards {
		t.Fatalf("%d shards, want %d", n, shards)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var runs [shards]atomic.Int32
	var by [shards]string
	caller := goid()
	srv.forEachShard(func(i int, _ *shard) {
		runs[i].Add(1)
		by[i] = goid()
	})
	for i := range by {
		if by[i] != caller {
			t.Fatalf("shard %d ran on goroutine %s, want the caller's %s", i, by[i], caller)
		}
	}
	// The helpers run now, with nothing left to take.
	time.Sleep(10 * time.Millisecond)
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("shard %d ran %d times, want once", i, n)
		}
	}
}

// quietFleet is a server of fleet fresh nodes at their top level in 128
// shards, swept by workers: thresholds far above the fleet, nothing to
// command, so every cycle is quiet.
func quietFleet(b *testing.B, fleet, workers int) (*Server, time.Time) {
	srv, err := New(Config{
		Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e9, PH: 2e9},
		Shards: 128, FanoutWorkers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Stop)
	rng := rand.New(rand.NewSource(1))
	now := time.Now()
	for id := node.ID(0); id < node.ID(fleet); id++ {
		putRec(b, srv.nodes.of(id), manager.AgentReading{ID: id, Level: 9, MaxLevel: 9, Delta: randomDelta(rng)}, now)
	}
	return srv, now
}

// BenchmarkSweep prices one quiet sweep at two scales, each in 128 shards:
// steady-green's 8192 fresh nodes at their top level, and a tree-shift
// cabinet's 128, where the sweep's fixed cost — starting and joining its
// workers — weighs against one node a shard. Nothing to command; swept by
// one worker and by four.
func BenchmarkSweep(b *testing.B) {
	for _, fleet := range []int{8192, 128} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", fleet, workers), func(b *testing.B) {
				srv, now := quietFleet(b, fleet, workers)
				srv.sweep(1, now, time.Time{}) // the parts grow to size once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.sweep(i+2, now, time.Time{})
				}
			})
		}
	}
}

// BenchmarkQuietCycle prices a whole quiet control cycle, StepCycle — the
// sweep, sensed closing the snapshot, upkeep, a green Algorithm 1 with
// nothing to command and the journal's cycle close — on BenchmarkSweep's
// fleets and workers, with no RecordCycle: the cost of steady-green's
// reaction, one cabinet's share of it.
func BenchmarkQuietCycle(b *testing.B) {
	for _, fleet := range []int{8192, 128} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", fleet, workers), func(b *testing.B) {
				srv, _ := quietFleet(b, fleet, workers)
				srv.StepCycle() // the scratch grows to size once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.StepCycle()
				}
			})
		}
	}
}

// TestRecordsNeverMove: a session, the actuator and a sender each hold a
// *nodeRec across the shard lock, so the table's growth must leave every
// record where it was made — and must not charge a shard of a few nodes
// for the chunks of a large one.
func TestRecordsNeverMove(t *testing.T) {
	srv, err := New(Config{
		Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
		CommandTimeout: 5 * time.Second, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	sh := srv.nodes.shards[0]

	// Node 0 registers over a live session; 9 999 more records follow it.
	server, client := net.Pipe()
	peer := wire.NewConn(client)
	t.Cleanup(func() { peer.Close() })
	go runSession(srv, wire.NewConn(server), &wire.Envelope{Type: wire.KindHello, Node: 0, MaxLevel: 9, Level: 9}, 1)
	waitFor(t, 5*time.Second, "node 0 registered", func() bool { return currentConn(srv, 0) != nil })
	sh.mu.Lock()
	first := sh.nodes[0]
	for id := node.ID(1); id < 10000; id++ {
		noteConnect(sh, id, time.Now(), &srv.cfg, srv.quarantines)
	}
	if sh.nodes[0] != first || &sh.chunks[0][0] != first {
		t.Errorf("node 0's record moved: made at %p, indexed at %p, stored at %p", first, sh.nodes[0], &sh.chunks[0][0])
	}
	stored := 0
	for i, chunk := range sh.chunks {
		if want := min(4<<i, maxChunk); cap(chunk) != want {
			t.Errorf("chunk %d holds %d records, want %d (4, doubling, capped at %d)", i, cap(chunk), want, maxChunk)
		}
		for k := range chunk {
			if rec := &chunk[k]; sh.nodes[rec.id] == rec {
				stored++
			}
		}
	}
	sh.mu.Unlock()
	if stored != 10000 || recordCount(srv) != 10000 {
		t.Errorf("%d stored records are the ones the index holds, %d counted, want 10000", stored, recordCount(srv))
	}

	// The session registered before the growth still owns the record the
	// index finds: a command recorded through the index is acked through
	// the session's pointer.
	if err := (actuator{srv, nil}).SetNodeLevel(0, 4); err != nil {
		t.Fatal(err)
	}
	cmd, err := peer.Recv()
	if err != nil || cmd.Type != wire.KindCommand {
		t.Fatalf("received %+v (%v), want the command", cmd, err)
	}
	if err := peer.Send(wire.Envelope{Type: wire.KindAck, Node: 0, Seq: cmd.Seq, Level: cmd.Level}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the ack to reach node 0's record", func() bool { return srv.UnackedCommands() == 0 })

	// The cabinet shape of the tree workloads: 128 nodes over the default
	// 32 shards, four to a shard or so.
	cabinet := idleServer(t)
	for id := node.ID(0); id < 128; id++ {
		noteConnect(cabinet.nodes.of(id), id, time.Now(), &cabinet.cfg, cabinet.quarantines)
	}
	for i, sh := range cabinet.nodes.shards {
		for _, chunk := range sh.chunks {
			if cap(chunk) > 8 {
				t.Errorf("shard %d of a 128-node cabinet (%d nodes) has a chunk of %d records, want none above 8", i, len(sh.nodes), cap(chunk))
			}
		}
	}
}
