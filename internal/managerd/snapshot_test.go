package managerd

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/proptest"
	"repro/internal/units"
)

// TestSnapshotInPlaceEqualsMerge: the sweep evaluates each candidate into
// its shard's region of the policy snapshot and sensed closes the gaps
// between the regions, so the snapshot must equal the reference merge —
// every shard's candidates in registration order, shard by shard — with p
// and demand summed in that order, bit for bit. Each trial fills random
// shards with fresh, stale, away and quarantined records and, in half the
// trials, registers one more record on a shard after the sweep sized the
// regions and before it walked that shard, which must spill the shard to
// the merge without changing the result. Replay a failure with
// PROPTEST_SEED.
func TestSnapshotInPlaceEqualsMerge(t *testing.T) {
	const (
		top    = 9
		cycleN = 7
	)
	model := power.TianheNode()
	ref := manager.NewBuilder(model)
	proptest.MustCheck(t, "in-place snapshot", proptest.Config{NumTrials: 60, Seed: 43}, func(g *proptest.Generator) error {
		shards, workers, governed := 1<<g.Intn(5), g.IntRange(1, 4), g.Bool(0.5)
		cfg := Config{
			Model: model, Policy: policy.MPCC{}, Tg: 3,
			ControlEvery: time.Hour, Thresholds: power.Thresholds{PL: 1e6, PH: 2e6},
			StaleAfter: 100 * time.Millisecond, LostAfter: time.Second,
			Shards: shards, FanoutWorkers: workers,
		}
		if governed {
			cfg.CoordinatorDial = func() (net.Conn, error) { return nil, net.ErrClosed }
		}
		srv, err := New(cfg)
		if err != nil {
			return err
		}
		defer srv.Stop()
		t0 := time.Now()
		cut := t0.Add(-cfg.StaleAfter)

		// The reference is kept from what the trial put in, shard by shard
		// in registration order, not read back from the table.
		type entry struct {
			r                manager.AgentReading
			stale, away, bad bool // bad: quarantined
			prev             units.Watts
		}
		order := make([][]entry, len(srv.nodes.shards))
		index := func(sh *shard) int {
			for i := range srv.nodes.shards {
				if srv.nodes.shards[i] == sh {
					return i
				}
			}
			panic("foreign shard")
		}
		put := func(sh *shard, id node.ID, e entry) {
			i := index(sh)
			if e.away {
				rec := sh.add(id)
				rec.health.state = healthLost
				order[i] = append(order[i], e)
				return
			}
			e.r = manager.AgentReading{ID: id, Level: g.Intn(top + 1), MaxLevel: top, Delta: randomDelta(g.Rand())}
			at := t0.Add(-time.Duration(g.Intn(90)) * time.Millisecond)
			if e.stale {
				at = t0.Add(-200 * time.Millisecond)
			}
			rec := putRec(t, sh, e.r, at)
			if e.bad {
				rec.health = healthRec{state: healthQuarantined, quarantinedAt: t0}
			}
			if g.Bool(0.5) { // a candidate last cycle: PrevEst carries
				rec.est, rec.estCycle = units.Watts(100+200*g.Float64()), cycleN-1
				e.prev = rec.est
			} else {
				rec.est, rec.estCycle = units.Watts(100+200*g.Float64()), cycleN-3
			}
			order[i] = append(order[i], e)
		}
		fleet := g.Intn(300)
		for _, n := range g.Rand().Perm(fleet) {
			id := node.ID(n)
			var e entry
			switch g.Intn(8) {
			case 0:
				e.stale = true
			case 1:
				e.away = true
			case 2:
				e.bad = true
			case 3:
				e.bad, e.stale = true, true
			}
			put(srv.nodes.of(id), id, e)
		}

		// In half the trials, one record lands on shard k between the
		// sizing and k's walk: the test holds k's lock until the sweep has
		// walked a shard j before it, so the regions are sized.
		late := shards > 1 && g.Bool(0.5)
		var parts []cyclePart
		k := 0
		if !late {
			parts = srv.sweep(cycleN, t0, cut)
		} else {
			k = g.IntRange(1, shards-1)
			shk, shj := srv.nodes.shards[k], srv.nodes.shards[g.Intn(k)]
			shj.mu.Lock()
			shj.nHealthy = -1
			shj.mu.Unlock()
			shk.mu.Lock()
			done := make(chan []cyclePart)
			go func() { done <- srv.sweep(cycleN, t0, cut) }()
			for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
				shj.mu.Lock()
				walked := shj.nHealthy != -1
				shj.mu.Unlock()
				if walked {
					break
				}
				if time.Now().After(deadline) {
					shk.mu.Unlock()
					<-done
					return fmt.Errorf("the sweep never walked shard %d", index(shj))
				}
			}
			id := node.ID(fleet)
			for srv.nodes.of(id) != shk {
				id++
			}
			put(shk, id, entry{})
			shk.mu.Unlock()
			parts = <-done
		}
		for i := range parts {
			if want := late && i == k; parts[i].spilled != want {
				return fmt.Errorf("shard %d spilled %v, want %v (late record: %v)", i, parts[i].spilled, want, late)
			}
		}
		p, demand, stale := srv.sensed(parts, nil, t0)

		var wantNodes []policy.NodeState
		var wantP, wantDemand units.Watts
		wantStale := 0
		for _, shard := range order {
			var sp, sd units.Watts
			for _, e := range shard {
				switch {
				case e.away:
				case e.stale:
					wantStale++
				default:
					ns := ref.Eval(e.r, e.prev)
					if !e.bad {
						wantNodes = append(wantNodes, ns)
					}
					sp += ns.Est
					if governed {
						atTop := e.r
						atTop.Level = atTop.MaxLevel
						sd += ref.Eval(atTop, 0).Est
					}
				}
			}
			wantP += sp
			wantDemand += sd
		}
		got := srv.snap.Nodes
		if len(got) != len(wantNodes) {
			return fmt.Errorf("%d shards, %d workers, late %v: snapshot of %d nodes, want %d", shards, workers, late, len(got), len(wantNodes))
		}
		for i := range got {
			if got[i] != wantNodes[i] {
				return fmt.Errorf("%d shards, %d workers, late %v: node %d\n got %+v\nwant %+v", shards, workers, late, i, got[i], wantNodes[i])
			}
		}
		if math.Float64bits(float64(p)) != math.Float64bits(float64(wantP)) ||
			math.Float64bits(float64(demand)) != math.Float64bits(float64(wantDemand)) || stale != wantStale {
			return fmt.Errorf("%d shards, %d workers, late %v: p %v demand %v stale %d, want %v, %v and %d",
				shards, workers, late, p, demand, stale, wantP, wantDemand, wantStale)
		}
		return nil
	})
}
