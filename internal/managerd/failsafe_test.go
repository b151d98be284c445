package managerd

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dialFakeAgent opens a hand-rolled agent connection and sends the hello;
// the test drives the protocol explicitly from there.
func dialFakeAgent(t *testing.T, addr string, id, level, maxLevel int) *wire.Conn {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(raw)
	if err := c.Send(wire.Envelope{Type: wire.KindHello, Node: id, MaxLevel: maxLevel, Level: level}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// busySample fabricates a high-CPU sample (well above the idle cutoff) so
// the node is a policy candidate and its power estimate is substantial.
func busySample(id, level int) wire.Envelope {
	return wire.Envelope{Type: wire.KindSample, Node: id, Level: level, CPUUtil: 0.95, IntervalMS: 50, Job: 1}
}

func TestJournalSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	st, err := replica.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.SetEpoch(3)
	st.SetLevel(3, 2)
	st.SetLevel(1, 0)
	learner := &power.LearnerState{LifetimePeakW: 1000, Trained: true, AdjustCycles: 7, PLW: 840, PHW: 930}
	if _, ok := st.CommitCycle(42, 840, 930, learner); !ok {
		t.Fatal("commit with changes reported nothing to commit")
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	out, err := replica.ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.SavedAtCycle != 42 || out.Learner == nil || !out.Learner.Trained || out.Learner.LifetimePeakW != 1000 {
		t.Errorf("journal round trip lost state: %+v", out)
	}
	if out.Epoch != 3 || out.LastSeq != 1 {
		t.Errorf("epoch/seq not persisted: %+v", out)
	}
	// Snapshots sort levels by node for stable diffs.
	if len(out.Levels) != 2 || out.Levels[0].Node != 1 || out.Levels[1].Node != 3 {
		t.Errorf("levels not sorted: %+v", out.Levels)
	}
}

func TestJournalRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage":   "not json at all{{{",
		"truncated": `{"saved_at_cycle": 9, "levels": [{"node"`,
		"negcycle":  `{"saved_at_cycle": -1, "levels": []}`,
		"neglevel":  `{"saved_at_cycle": 1, "levels": [{"node": 0, "level": -3}]}`,
		"dupnode":   `{"saved_at_cycle": 1, "levels": [{"node": 2, "level": 1}, {"node": 2, "level": 0}]}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		// The strict read path rejects the snapshot wholesale…
		if _, err := replica.ReadState(path); err == nil {
			t.Errorf("%s journal accepted", name)
		}
		// …and the daemon's open path cold-starts on it instead of
		// applying a partial state.
		st, err := replica.Open(path)
		if err != nil {
			t.Fatalf("%s: open should cold-start, got %v", name, err)
		}
		if !st.Empty() {
			t.Errorf("%s: corrupt journal produced state %+v", name, st.State())
		}
		st.Close()
	}
	if _, err := replica.ReadState(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing journal accepted")
	}
}

func TestCommandRetryAndAck(t *testing.T) {
	// Thresholds put one busy node (~250 W) in yellow so the manager keeps
	// commanding it down.
	srv := startServer(t, power.Thresholds{PL: 200, PH: 400}, policy.MPCC{})
	c := dialFakeAgent(t, srv.Addr(), 1, 9, 9)

	var mu sync.Mutex
	level := 9
	acking := false
	var sendMu sync.Mutex
	send := func(e wire.Envelope) {
		sendMu.Lock()
		defer sendMu.Unlock()
		_ = c.Send(e)
	}

	// Reader: swallow commands silently until the test flips acking, then
	// apply and acknowledge them like a well-behaved agent.
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type != wire.KindCommand {
				continue
			}
			mu.Lock()
			if !acking {
				mu.Unlock()
				continue
			}
			level = env.Level
			lv := level
			mu.Unlock()
			send(wire.Envelope{Type: wire.KindAck, Node: 1, Seq: env.Seq, Level: lv})
		}
	}()
	// Sampler: keep the node fresh and busy.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mu.Lock()
				lv := level
				mu.Unlock()
				send(busySample(1, lv))
			}
		}
	}()

	// Phase 1: no acks ever arrive, so in-flight commands must be retried.
	waitFor(t, 10*time.Second, "command retries", func() bool {
		return srv.Status().CommandRetries >= 1
	})
	if srv.Status().CommandAcks != 0 {
		t.Errorf("acks counted before the agent ever acked: %+v", srv.Status())
	}
	// Phase 2: the agent starts acking; the manager must match sequence
	// numbers and count the acknowledgements.
	mu.Lock()
	acking = true
	mu.Unlock()
	waitFor(t, 10*time.Second, "command acks", func() bool {
		return srv.Status().CommandAcks >= 1
	})
}

func TestHealthStateTransitions(t *testing.T) {
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPC{},
		Tg:           3,
		ControlEvery: 20 * time.Millisecond,
		Thresholds:   power.Thresholds{PL: units.MW(1), PH: units.MW(2)},
		StaleAfter:   80 * time.Millisecond,
		LostAfter:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	c := dialFakeAgent(t, srv.Addr(), 3, 9, 9)
	_ = c.Send(busySample(3, 9))
	waitFor(t, 5*time.Second, "healthy", func() bool { return srv.Status().HealthyNodes == 1 })
	// Go silent while staying connected: healthy → stale → lost.
	waitFor(t, 5*time.Second, "stale", func() bool { return srv.Status().StaleNodes == 1 })
	waitFor(t, 5*time.Second, "lost while connected", func() bool { return srv.Status().LostNodes == 1 })
	// Disconnecting keeps the record, still lost.
	c.Close()
	waitFor(t, 5*time.Second, "lost after disconnect", func() bool {
		st := srv.Status()
		return st.Agents == 0 && st.LostNodes == 1
	})
}

func TestQuarantineExcludesFlappingNode(t *testing.T) {
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPCC{},
		Tg:           3,
		ControlEvery: 20 * time.Millisecond,
		// One busy node (~250 W) lands deep in red: without quarantine the
		// manager would command it to level 0 every cycle.
		Thresholds: power.Thresholds{PL: 100, PH: 150},
		FlapWindow: 5 * time.Second,
		FlapLimit:  3,
		Quarantine: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	// Two quick connect/disconnect bounces, then a third connect that
	// sticks — crossing FlapLimit quarantines the node.
	for i := 0; i < 2; i++ {
		c := dialFakeAgent(t, srv.Addr(), 5, 9, 9)
		c.Close()
	}
	c := dialFakeAgent(t, srv.Addr(), 5, 9, 9)
	waitFor(t, 5*time.Second, "quarantine", func() bool {
		st := srv.Status()
		return st.Quarantines >= 1 && st.QuarantinedNodes == 1
	})

	// The quarantined node keeps reporting busy samples. Its power still
	// counts (the system goes red) but it must be excluded from the
	// candidate set: no degrade commands at all.
	var sendMu sync.Mutex
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sendMu.Lock()
				_ = c.Send(busySample(5, 9))
				sendMu.Unlock()
			}
		}
	}()
	gotCmd := make(chan struct{}, 1)
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			if env.Type == wire.KindCommand {
				select {
				case gotCmd <- struct{}{}:
				default:
				}
			}
		}
	}()

	waitFor(t, 5*time.Second, "red cycles", func() bool { return srv.Status().RedCycles >= 3 })
	select {
	case <-gotCmd:
		t.Fatal("quarantined node received a command")
	default:
	}
	if st := srv.Status(); st.DegradeOps != 0 {
		t.Errorf("degrade ops against a fleet of one quarantined node: %+v", st)
	}
}

func TestRestartFromJournalResumesAndReconciles(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "managerd.journal")
	mkConfig := func(training time.Duration) Config {
		return Config{
			Addr:         "127.0.0.1:0",
			Model:        power.TianheNode(),
			Policy:       policy.MPCC{},
			Tg:           3,
			ControlEvery: 20 * time.Millisecond,
			Thresholds:   power.Thresholds{PL: units.MW(1), PH: units.MW(2)},
			Learn:        &LearnConfig{PMax: units.KW(5), Training: training, AdjustEvery: 5},
			HA:           daemon.HA{JournalPath: jp},
			JournalEvery: 2,
		}
	}

	// First life: train on a live fleet, cap it, journal the result.
	srv1, err := New(mkConfig(200 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	startAgents(t, ctx1, srv1.Addr(), 2)
	waitFor(t, 15*time.Second, "first life trained and capping", func() bool {
		st := srv1.Status()
		return st.Trained && st.JournalWrites >= 1 && st.DegradeOps >= 1 && st.CommandAcks >= 1
	})
	cancel1()
	srv1.Stop() // writes the final snapshot

	js, err := replica.ReadState(jp)
	if err != nil {
		t.Fatalf("no readable journal after stop: %v", err)
	}
	if js.Learner == nil || !js.Learner.Trained || len(js.Levels) == 0 {
		t.Fatalf("journal missing recovery state: %+v", js)
	}

	// Second life: Training is an hour — if the journal restore failed the
	// daemon would sit untrained (capping disarmed) for the whole test.
	srv2, err := New(mkConfig(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	st := srv2.Status()
	if !st.Trained {
		t.Fatal("restarted manager not trained from journal")
	}
	if st.ThresholdPHW >= 1e6 {
		t.Errorf("restart kept seed thresholds instead of journaled ones: %+v", st)
	}
	if st.LostNodes != len(js.Levels) {
		t.Errorf("journal nodes not tracked as lost: %+v", st)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Stop)

	// Fresh agents reconnect at their top level — drifted from the
	// journaled (degraded) levels. The manager must reconcile them back
	// down without any retraining.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	startAgents(t, ctx2, srv2.Addr(), 2)
	waitFor(t, 15*time.Second, "reconciliation", func() bool {
		st := srv2.Status()
		return st.Reconciles >= 1 && st.CommandAcks >= 1 && st.Drifted == 0
	})
}

func TestCorruptJournalColdStarts(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "managerd.journal")
	if err := os.WriteFile(jp, []byte(`{"saved_at_cycle": "NaN"`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPC{},
		Tg:           3,
		ControlEvery: 20 * time.Millisecond,
		Thresholds:   power.Thresholds{PL: units.MW(1), PH: units.MW(2)},
		Learn:        &LearnConfig{PMax: units.KW(5), Training: time.Hour},
		HA:           daemon.HA{JournalPath: jp},
	})
	if err != nil {
		t.Fatalf("corrupt journal must cold-start, not fail construction: %v", err)
	}
	st := srv.Status()
	if st.Trained || st.LostNodes != 0 || st.ThresholdPHW != 2e6 {
		t.Errorf("corrupt journal leaked state into a cold start: %+v", st)
	}
}
