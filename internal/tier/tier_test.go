package tier

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/wire"
)

// TestGovernorThresholdBands pins the three-band contract of
// Thresholds: Initial before the first grant of a young connection,
// Failsafe once the parent has been silent past the grace window (with
// OnFloor firing exactly once per transition), and Governed dropping on
// the floor.
func TestGovernorThresholdBands(t *testing.T) {
	var floors int
	initial := power.Thresholds{PL: 50, PH: 60}
	failsafe := power.Thresholds{PL: 10, PH: 12}
	g := NewGovernor(GovernorConfig{
		Grace:    100 * time.Millisecond,
		Initial:  initial,
		Failsafe: failsafe,
		Snapshot: func() Snapshot { return Snapshot{} },
		OnFloor:  func() { floors++ },
	})
	g.Start()
	now := time.Now()

	if thr := g.Thresholds(now); thr != initial {
		t.Fatalf("young ungranted governor enforces %+v, want Initial %+v", thr, initial)
	}
	if g.Governed() {
		t.Fatal("governed before any grant")
	}

	late := now.Add(250 * time.Millisecond)
	if thr := g.Thresholds(late); thr != failsafe {
		t.Fatalf("past-grace governor enforces %+v, want Failsafe %+v", thr, failsafe)
	}
	if thr := g.Thresholds(late.Add(time.Millisecond)); thr != failsafe {
		t.Fatalf("floored governor enforces %+v, want Failsafe %+v", thr, failsafe)
	}
	if floors != 1 {
		t.Fatalf("OnFloor fired %d times across one transition, want 1", floors)
	}
	if g.Governed() {
		t.Fatal("governed while floored")
	}
}

// TestGovernorGrantorSession runs the full seam over in-memory pipes: a
// Governor dials, subscribes with a cab_report carrying its snapshot,
// negotiates the binary codec, and adopts the band the Grantor's next
// cycle divides for it — the exact edge managerd↔fedd and fedd↔fedd
// sessions are built from. The test cycles once per upward report until
// the grant is adopted, so it waits on the session's own frames, never on
// the clock.
func TestGovernorGrantorSession(t *testing.T) {
	reg := obs.NewRegistry()
	band := power.Thresholds{PL: 100, PH: 110}
	grantor := NewGrantor(GrantorConfig{
		Division:   budget.Proportional,
		StaleAfter: time.Hour,
		Band:       func(time.Time) power.Thresholds { return band },
		Reg:        reg,
	})

	reported, adopted := make(chan struct{}, 1), make(chan struct{}, 1)
	signal := func(c chan struct{}) {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	gov := NewGovernor(GovernorConfig{
		Dial: func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				conn := wire.NewConn(server)
				first, err := conn.Recv()
				if err != nil {
					conn.Close()
					return
				}
				grantor.Serve(conn, first)
			}()
			return client, nil
		},
		Child:       3,
		ReportEvery: 5 * time.Millisecond,
		Grace:       time.Hour,
		Initial:     power.Thresholds{PL: 50, PH: 60},
		Failsafe:    power.Thresholds{PL: 10, PH: 12},
		Snapshot: func() Snapshot {
			signal(reported)
			return Snapshot{AppliedPLW: 50, AppliedPHW: 60, Agents: 4, Healthy: 4, Epoch: 7}
		},
		OnGrant: func() { signal(adopted) },
	})
	gov.Start()
	// Sensed before the session opens, so the subscribe report carries it.
	gov.NoteSense(80, 120)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		gov.Run(untilClosed(stop))
	}()
	defer func() {
		close(stop)
		gov.CloseConn()
		grantor.CloseAll()
		<-done
	}()

	// The subscribe is registered before the next report is read; a cycle
	// that runs before registration grants nothing, and the next report
	// brings another.
	var demand float64
	for deadline := time.After(5 * time.Second); !gov.Governed(); {
		select {
		case <-reported:
			_, demand = grantor.Cycle()
		case <-adopted:
		case <-deadline:
			t.Fatal("governor never adopted the grant")
		}
	}
	st := grantor.States()
	if len(st) != 1 || st[0].DemandW != 120 {
		t.Fatalf("grantor states %+v, want the governor's 120 W demand report", st)
	}
	// The sole child gets the whole band (P_H rebuilt from the headroom
	// ratio, hence the tolerance).
	thr := gov.Thresholds(time.Now())
	if math.Abs(float64(thr.PL-band.PL)) > 1e-9 || math.Abs(float64(thr.PH-band.PH)) > 1e-9 {
		t.Fatalf("governed thresholds %+v, want the full band %+v", thr, band)
	}

	if st := st[0]; st.Cabinet != 3 || !st.Live || st.Codec != wire.CodecBinary {
		t.Errorf("child state %+v, want child 3 live on the binary codec", st)
	}
	if st := st[0]; st.GrantW != 100 || st.Agents != 4 || st.Epoch != 7 {
		t.Errorf("child state %+v, want grant 100 W, 4 agents, epoch 7", st)
	}
	live, _ := reg.Value("cabinets_live")
	agents, _ := reg.Value("agents")
	if live != 1 || agents != 4 || demand != 120 {
		t.Errorf("roll-up: %v live, %v agents, %v W demand; want 1, 4 and 120", live, agents, demand)
	}
}

// attach registers child node on the grantor as Serve does after its
// handshake — folding a cab_report of demandW and attaching the grantor's
// end of a pipe — and returns the child's end with every frame the grantor
// sends on it forwarded to grants. Registration is synchronous: the test
// cycles knowing the child is there.
func attach(t *testing.T, g *Grantor, node int, demandW float64, grants chan<- wire.Envelope) *wire.Conn {
	t.Helper()
	client, server := net.Pipe()
	g.mu.Lock()
	cs := g.childLocked(node)
	cs.conn = wire.NewConn(server)
	g.noteReport(cs, &wire.Envelope{Type: wire.KindCabReport, Node: node, PowerW: demandW, DemandW: demandW})
	g.mu.Unlock()
	conn := wire.NewConn(client)
	go func() { // a pipe write parks until it is read
		var env wire.Envelope
		for conn.RecvInto(&env) == nil {
			if grants != nil {
				grants <- env
			}
		}
	}()
	t.Cleanup(func() { conn.Close(); server.Close() })
	return conn
}

// deliver folds one cab_report of demandW from child into the core at now.
func deliver(c *grantorCore, child int, demandW float64, now time.Time) {
	cs, _ := c.track(child)
	c.report(cs, &wire.Envelope{Type: wire.KindCabReport, Node: child, PowerW: demandW, DemandW: demandW}, now)
}

// TestGrantorLostChildReserveAndRedivide pins the dead-man arithmetic on
// the grantor's core, in virtual time: a child that stops reporting past
// StaleAfter is classified lost, its share minus the reserved floor is
// re-divided to the survivor, and a fresh report brings it straight back.
func TestGrantorLostChildReserveAndRedivide(t *testing.T) {
	cfg := GrantorConfig{Division: budget.Proportional, StaleAfter: 60 * time.Millisecond, Floor: 20}
	c := grantorCore{cfg: &cfg}
	band := power.Thresholds{PL: 100, PH: 110}
	cycle := func(now time.Time) map[int]float64 {
		grants, _ := c.cycle(band, now)
		out := map[int]float64{}
		for i := range grants {
			c.sent(&grants[i])
			out[grants[i].cs.Cabinet] = grants[i].w
		}
		return out
	}
	now := time.Unix(0, 0)
	deliver(&c, 0, 200, now)
	deliver(&c, 1, 200, now)

	if got := cycle(now); len(got) != 2 || got[0] != 50 || got[1] != 50 {
		t.Errorf("equal-demand grants = %v, want 50 W each", got)
	}

	// Child 1 goes silent past StaleAfter while child 0 stays fresh.
	for step := 0; step < 4; step++ {
		now = now.Add(20 * time.Millisecond)
		deliver(&c, 0, 200, now)
		cycle(now)
	}
	if !c.children[0].Live || c.children[1].Live {
		t.Fatalf("after %v of silence: child 0 live %v, child 1 live %v; want only child 1 lost",
			now.Sub(c.children[1].lastSeen), c.children[0].Live, c.children[1].Live)
	}

	// The survivor's grant is the band minus the lost child's reserved
	// floor: 100 − 20 = 80.
	now = now.Add(20 * time.Millisecond)
	deliver(&c, 0, 200, now)
	if got := cycle(now); len(got) != 1 || got[0] != 80 {
		t.Errorf("survivor's re-divided grants = %v, want child 0 alone at 80 W", got)
	}

	// One fresh report restores the lost child on the next cycle.
	deliver(&c, 1, 200, now)
	cycle(now)
	if !c.children[0].Live || !c.children[1].Live {
		t.Error("silent child never came back live after a fresh report")
	}
}

// TestGrantorSeedReservesShares pins promotion seeding: seeded children
// are live with no connection, keep their journalled grants visible, and
// a cycle neither sends them anything nor forgets their reservation; the
// grant sequence resumes past the largest seeded value.
func TestGrantorSeedReservesShares(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGrantor(GrantorConfig{
		Division:   budget.Proportional,
		StaleAfter: time.Hour,
		Band:       func(time.Time) power.Thresholds { return power.Thresholds{PL: 100, PH: 110} },
		Reg:        reg,
	})
	g.Seed([]SeedChild{
		{Child: 0, GrantW: 40, GrantPHW: 44, GrantSeq: 9},
		{Child: 1, GrantW: 60, GrantPHW: 66, GrantSeq: 11},
		{Child: -1, GrantW: 99}, // invalid index, dropped
	})

	states := g.States()
	if len(states) != 2 {
		t.Fatalf("seeded %d children, want 2: %+v", len(states), states)
	}
	for i, want := range []float64{40, 60} {
		if !states[i].Live || states[i].GrantW != want {
			t.Errorf("seeded child %d = %+v, want live with grant %.0f", i, states[i], want)
		}
	}

	// A cycle over seeded-but-unconnected children reserves their shares
	// without sending (no connection yet) and without marking them lost.
	g.Cycle()
	if v, _ := reg.Value("grants_sent"); v != 0 {
		t.Errorf("grants_sent = %v over connectionless children, want 0", v)
	}
	if v, _ := reg.Value("cabinets_live"); v != 2 {
		t.Errorf("cabinets_live = %v, want 2", v)
	}

	// The first real grant must fence past every journalled sequence.
	grants := make(chan wire.Envelope, 1)
	attach(t, g, 0, 100, grants)
	go g.Cycle()
	env := <-grants
	if env.Type != wire.KindCabBudget || env.Seq <= 11 {
		t.Errorf("post-seed grant %+v, want a cab_budget with seq > 11", env)
	}
}

// TestGrantsShrinkBeforeTheyGrow: a division is sent one child at a time,
// so the order decides what is in force between two sends. Two children
// swap demands cycle after cycle; replaying the sends (OnGrant fires after
// each), the grants in force must never sum above the band — which they do
// whenever the grown share is told before its sibling's shrunk one.
func TestGrantsShrinkBeforeTheyGrow(t *testing.T) {
	const band = 100.0
	inForce := map[int]float64{}
	g := NewGrantor(GrantorConfig{
		Division:   budget.Proportional,
		StaleAfter: time.Hour,
		Band:       func(time.Time) power.Thresholds { return power.Thresholds{PL: band, PH: 110} },
		Reg:        obs.NewRegistry(),
		OnGrant: func(child int, grantW, _ float64, _ uint64) {
			inForce[child] = grantW
			if sum := inForce[0] + inForce[1]; sum > band+1e-9 {
				t.Errorf("after child %d's grant of %.0f W the grants in force sum to %.0f W, band %.0f W", child, grantW, sum, band)
			}
		},
	})
	demands := []float64{300, 100}
	for child, d := range demands {
		attach(t, g, child, d, nil)
	}
	for round := 0; round < 8; round++ {
		g.Cycle()
		if inForce[0]+inForce[1] != band || inForce[0] != demands[0]/4 {
			t.Fatalf("round %d: grants in force %v, want %v divided 3:1 by demand %v", round, inForce, band, demands)
		}
		demands[0], demands[1] = demands[1], demands[0]
		g.mu.Lock()
		for child, cs := range g.core.children {
			g.noteReport(cs, &wire.Envelope{Type: wire.KindCabReport, Node: child, PowerW: demands[child], DemandW: demands[child]})
		}
		g.mu.Unlock()
	}
}
