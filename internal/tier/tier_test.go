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

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

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
// sessions are built from.
func TestGovernorGrantorSession(t *testing.T) {
	reg := obs.NewRegistry()
	band := power.Thresholds{PL: 100, PH: 110}
	grantor := NewGrantor(GrantorConfig{
		Division:   budget.Proportional,
		StaleAfter: time.Hour,
		Band:       func(time.Time) power.Thresholds { return band },
		Reg:        reg,
	})

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
			return Snapshot{AppliedPLW: 50, AppliedPHW: 60, Agents: 4, Healthy: 4, Epoch: 7}
		},
	})
	gov.Start()
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

	gov.NoteSense(80, 120)
	waitFor(t, 5*time.Second, func() bool {
		states := grantor.States()
		return len(states) == 1 && states[0].DemandW == 120
	}, "grantor never saw the governor's demand report")

	grantor.Cycle()
	waitFor(t, 5*time.Second, func() bool {
		return gov.Governed()
	}, "governor never adopted the grant")
	// The sole child gets the whole band (P_H rebuilt from the headroom
	// ratio, hence the tolerance).
	thr := gov.Thresholds(time.Now())
	if math.Abs(float64(thr.PL-band.PL)) > 1e-9 || math.Abs(float64(thr.PH-band.PH)) > 1e-9 {
		t.Fatalf("governed thresholds %+v, want the full band %+v", thr, band)
	}

	st := grantor.States()[0]
	if st.Child != 3 || !st.Live || st.Codec != wire.CodecBinary {
		t.Errorf("child state %+v, want child 3 live on the binary codec", st)
	}
	if st.GrantW != 100 || st.Agents != 4 || st.Epoch != 7 {
		t.Errorf("child state %+v, want grant 100 W, 4 agents, epoch 7", st)
	}
	agg := grantor.Aggregate()
	if agg.Live != 1 || agg.Agents != 4 || agg.DemandW != 120 {
		t.Errorf("aggregate %+v, want 1 live, 4 agents, 120 W demand", agg)
	}
}

// subscribeChild opens a raw child session against the grantor: it
// subscribes with one cab_report and returns the connection, leaving the
// test to play the child.
func subscribeChild(t *testing.T, g *Grantor, node int, demandW float64) *wire.Conn {
	t.Helper()
	client, server := net.Pipe()
	sc := wire.NewConn(server)
	go func() {
		first, err := sc.Recv()
		if err != nil {
			sc.Close()
			return
		}
		g.Serve(sc, first)
	}()
	conn := wire.NewConn(client)
	if err := conn.Send(wire.Envelope{
		Type: wire.KindCabReport, Node: node, PowerW: demandW, DemandW: demandW,
	}); err != nil {
		t.Fatal(err)
	}
	hello, err := conn.Recv()
	if err != nil || hello.Type != wire.KindHello {
		t.Fatalf("subscribe reply = %+v, %v", hello, err)
	}
	// The hello reply is sent before Serve registers the child; wait for
	// the registration to land before the test cycles.
	waitFor(t, 5*time.Second, func() bool {
		for _, st := range g.States() {
			if st.Child == node && st.DemandW == demandW {
				return true
			}
		}
		return false
	}, "child never registered after subscribe")
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestGrantorLostChildReserveAndRedivide pins the dead-man arithmetic:
// a child that stops reporting past StaleAfter is classified lost, its
// share minus the reserved floor is re-divided to the survivor, and a
// fresh report brings it straight back.
func TestGrantorLostChildReserveAndRedivide(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGrantor(GrantorConfig{
		Division:   budget.Proportional,
		StaleAfter: 60 * time.Millisecond,
		Floor:      20,
		Band:       func(time.Time) power.Thresholds { return power.Thresholds{PL: 100, PH: 110} },
		Reg:        reg,
	})
	c0 := subscribeChild(t, g, 0, 200)
	c1 := subscribeChild(t, g, 1, 200)

	grants := make(chan wire.Envelope, 16)
	for _, c := range []*wire.Conn{c0, c1} {
		c := c
		go func() {
			var env wire.Envelope
			for c.RecvInto(&env) == nil {
				if env.Type == wire.KindCabBudget {
					grants <- env
				}
			}
		}()
	}

	g.Cycle()
	for i := 0; i < 2; i++ {
		select {
		case env := <-grants:
			if env.BudgetW != 50 {
				t.Errorf("equal-demand grant = %.0f W, want 50", env.BudgetW)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("first cycle never granted both children")
		}
	}

	// Child 1 goes silent past StaleAfter while child 0 stays fresh.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("child 1 never classified lost")
		}
		if err := c0.Send(wire.Envelope{
			Type: wire.KindCabReport, Node: 0, PowerW: 200, DemandW: 200,
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		g.Cycle()
		states := g.States()
		if len(states) == 2 && states[0].Live && !states[1].Live {
			break
		}
	}

	// The survivor's next grant is the band minus the lost child's
	// reserved floor: 100 − 20 = 80.
	waitFor(t, 5*time.Second, func() bool {
		for {
			select {
			case env := <-grants:
				if env.Node == 0 && env.BudgetW == 80 {
					return true
				}
			default:
				return false
			}
		}
	}, "survivor never received the re-divided 80 W grant")

	// One fresh report restores the lost child on the next cycle.
	if err := c1.Send(wire.Envelope{
		Type: wire.KindCabReport, Node: 1, PowerW: 200, DemandW: 200,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		g.Cycle()
		states := g.States()
		return len(states) == 2 && states[0].Live && states[1].Live
	}, "silent child never came back live after a fresh report")
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
	c0 := subscribeChild(t, g, 0, 100)
	go g.Cycle()
	var env wire.Envelope
	for {
		if err := c0.RecvInto(&env); err != nil {
			t.Fatalf("no grant after redial: %v", err)
		}
		if env.Type == wire.KindCabBudget {
			break
		}
	}
	if env.Seq <= 11 {
		t.Errorf("post-seed grant seq = %d, want > 11", env.Seq)
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
	conns := []*wire.Conn{subscribeChild(t, g, 0, 300), subscribeChild(t, g, 1, 100)}
	for _, c := range conns {
		c := c
		go func() { // a pipe write parks until it is read
			var env wire.Envelope
			for c.RecvInto(&env) == nil {
			}
		}()
	}
	demands := []float64{300, 100}
	for round := 0; round < 8; round++ {
		g.Cycle()
		if inForce[0]+inForce[1] != band || inForce[0] != demands[0]/4 {
			t.Fatalf("round %d: grants in force %v, want %v divided 3:1 by demand %v", round, inForce, band, demands)
		}
		demands[0], demands[1] = demands[1], demands[0]
		for child, c := range conns {
			if err := c.Send(wire.Envelope{Type: wire.KindCabReport, Node: child, PowerW: demands[child], DemandW: demands[child]}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 5*time.Second, func() bool {
			st := g.States()
			return st[0].DemandW == demands[0] && st[1].DemandW == demands[1]
		}, "swapped demands never reported")
	}
}
