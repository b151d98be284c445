// Command powctl queries a running powmgrd — or powcoordd — for its
// status. Against a manager it prints connected agents, state cycle
// counts, throttle operations, thresholds and the manager's own measured
// CPU cost; against a coordinator (detected from the reply itself, no
// flag needed) it prints the budget, the fleet roll-up and one line per
// child with its liveness, negotiated codec and granted band.
//
// Both daemons answer from the same chassis, which fills every reply field
// from the instrument its name mirrors, so a field means one thing
// whichever daemon answers. A coordinator's roll-up is the one its last
// cycle made and reports upward: power sums every child, a lost child
// adds the reserved floor to demand, and a child that has not sensed yet
// counts at its current draw — the demand its parent divides by.
//
//	powctl -addr 127.0.0.1:7077
//	powctl -addr 127.0.0.1:7070          # a coordinator answers too
//	powctl -addr 127.0.0.1:7077 -json | jq .command_acks
//	powctl -addr 127.0.0.1:7077 -watch 1s -samples 60
//
// -watch polls the manager every interval and renders the recent history
// of the cycle-stage latencies (collection, selection, fan-out, whole
// cycle) and the estimated fleet power as terminal sparklines.
//
// The status probe and its reply are JSON, the one exchange that never
// moves onto the binary codec, so any client can read the answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/fedd"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powctl: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:7077", "manager daemon address")
		timeout = flag.Duration("timeout", 3*time.Second, "query timeout")
		asJSON  = flag.Bool("json", false, "print the full status reply as one JSON object")
		watch   = flag.Duration("watch", 0, "poll every interval and render latency sparklines (0 = one-shot)")
		samples = flag.Int("samples", 60, "polls per -watch render window; also how many polls before exiting")
	)
	flag.Parse()

	if *watch > 0 {
		if err := watchLoop(*addr, *timeout, *watch, *samples); err != nil {
			log.Fatal(err)
		}
		return
	}

	env, err := daemon.QueryStatus(*addr, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	if env.Node == fedd.CoordinatorNode {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(env); err != nil {
				log.Fatal(err)
			}
			return
		}
		printCoordinator(env)
		return
	}
	st := *env.Stats
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("agents          %d\n", st.Agents)
	fmt.Printf("cycles          %d (green %d, yellow %d, red %d)\n",
		st.Cycles, st.GreenCycles, st.YellowCycles, st.RedCycles)
	fmt.Printf("red entries     %d\n", st.RedEntries)
	fmt.Printf("ops             degrade %d, restore %d\n", st.DegradeOps, st.RestoreOps)
	fmt.Printf("last power      %.1f W\n", st.LastPowerW)
	fmt.Printf("thresholds      PL %.1f W, PH %.1f W\n", st.ThresholdPLW, st.ThresholdPHW)
	fmt.Printf("learner         trained %v, lifetime peak %.1f W\n", st.Trained, st.LifetimePeakW)
	fmt.Printf("manager busy    %d µs (cpu utilisation %.4f)\n", st.BusyMicros, st.CPUUtilise)
	fmt.Printf("select time     %d µs accumulated\n", st.SelectMicros)
	fmt.Printf("collection      last %d µs, %d µs accumulated\n", st.LastCollectMicros, st.CollectMicros)
	fmt.Printf("samples         %d received over the wire\n", st.SamplesReceived)
	fmt.Printf("stale dropped   %d\n", st.DroppedStale)
	fmt.Printf("command errors  %d (stale-conn %d)\n", st.CommandErrors, st.StaleConnErrors)
	fmt.Printf("commands        acks %d, retries %d, reconciles %d, drifted now %d\n",
		st.CommandAcks, st.CommandRetries, st.Reconciles, st.Drifted)
	fmt.Printf("fan-out         coalesced %d (%d shards)\n", st.CoalescedCmds, st.Shards)
	fmt.Printf("cycle latency   last %d µs, max %d µs (fan-out last %d µs, max %d µs)\n",
		st.LastCycleMicros, st.MaxCycleMicros, st.LastFanoutMicros, st.MaxFanoutMicros)
	fmt.Printf("node health     healthy %d, stale %d, lost %d, quarantined %d (quarantines %d)\n",
		st.HealthyNodes, st.StaleNodes, st.LostNodes, st.QuarantinedNodes, st.Quarantines)
	fmt.Printf("journal writes  %d (incremental appends %d)\n", st.JournalWrites, st.JournalAppends)
	if st.Governed || st.BudgetFloors > 0 {
		fmt.Printf("federation      cabinet %d, governed %v, grants %d, floors %d, demand %.1f W\n",
			st.Cabinet, st.Governed, st.BudgetGrants, st.BudgetFloors, st.DemandW)
	}
	if st.Epoch > 0 {
		fmt.Printf("ha              epoch %d, leader %v, followers %d (lag %d entries), fenced hellos %d\n",
			st.Epoch, st.Leader, st.ReplicaConns, st.ReplicaLagEntries, st.FencedHellos)
		if st.LastTakeoverMicros > 0 {
			fmt.Printf("last takeover   %s leaderless absorbed\n",
				time.Duration(st.LastTakeoverMicros)*time.Microsecond)
		}
	}
}

// printCoordinator renders a coordinator's status: the aggregate block,
// then one line per known child with its liveness, negotiated codec and
// granted band. "Child" is a cabinet manager under a row or root
// coordinator, or a whole row under a facility.
func printCoordinator(env wire.Envelope) {
	st := *env.Stats
	fmt.Printf("coordinator     row %d, governed %v\n", st.Cabinet, st.Governed)
	fmt.Printf("budget          PL %.1f W, PH %.1f W\n", st.ThresholdPLW, st.ThresholdPHW)
	fmt.Printf("fleet           power %.1f W, demand %.1f W, agents %d (healthy %d)\n",
		st.LastPowerW, st.DemandW, st.Agents, st.HealthyNodes)
	fmt.Printf("cycles          %d (last %d µs)\n", st.Cycles, st.LastCycleMicros)
	fmt.Printf("children        %d known, %d lost\n", len(env.Batch), st.LostNodes)
	fmt.Printf("federation      grants received %d, floors %d, decode errors %d\n",
		st.BudgetGrants, st.BudgetFloors, st.DecodeErrors)
	if st.Epoch > 0 {
		fmt.Printf("ha              epoch %d, leader %v, followers %d (lag %d entries), fenced hellos %d\n",
			st.Epoch, st.Leader, st.ReplicaConns, st.ReplicaLagEntries, st.FencedHellos)
		if st.LastTakeoverMicros > 0 {
			fmt.Printf("last takeover   %s leaderless absorbed\n",
				time.Duration(st.LastTakeoverMicros)*time.Microsecond)
		}
	}
	for _, c := range env.Batch {
		live := "live"
		if c.Level == 0 {
			live = "lost"
		}
		codec := c.Codec
		if codec == "" {
			codec = "-"
		}
		fmt.Printf("child %-3d       %s codec %-6s grant %.0f W (PH %.0f W, seq %d) power %.0f W demand %.0f W agents %d/%d epoch %d\n",
			c.Node, live, codec, c.BudgetW, c.PHW, c.Seq, c.PowerW, c.DemandW,
			c.Healthy, c.Agents, c.Epoch)
	}
}

// sparkWidth is the character width of the -watch sparklines.
const sparkWidth = 40

// track is one watched quantity: a status-reply projection accumulated
// into a series, rendered as a sparkline with a min/max scale.
type track struct {
	name string
	unit string
	get  func(st wire.StatusReply) float64
	s    *metrics.Series
}

// watchLoop polls the manager n times, every interval, printing after
// each poll a block of sparklines over the history gathered so far. The
// fixed poll count makes the command a bounded observation window rather
// than an open-ended UI — run it again for a fresh window.
func watchLoop(addr string, timeout, every time.Duration, n int) error {
	if n <= 0 {
		n = 60
	}
	var prevSelect int64
	tracks := []*track{
		{name: "power", unit: "W", get: func(st wire.StatusReply) float64 { return st.LastPowerW }},
		{name: "cycle", unit: "µs", get: func(st wire.StatusReply) float64 { return float64(st.LastCycleMicros) }},
		{name: "collect", unit: "µs", get: func(st wire.StatusReply) float64 { return float64(st.LastCollectMicros) }},
		{name: "fan-out", unit: "µs", get: func(st wire.StatusReply) float64 { return float64(st.LastFanoutMicros) }},
		// Selection time is accumulated by the manager; the per-poll delta
		// is what tracks the current policy cost.
		{name: "select Δ", unit: "µs", get: func(st wire.StatusReply) float64 { return float64(st.SelectMicros - prevSelect) }},
	}
	for _, tr := range tracks {
		tr.s = &metrics.Series{}
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(every)
		}
		env, err := daemon.QueryStatus(addr, timeout)
		if err != nil {
			return err
		}
		st := *env.Stats
		at := time.Duration(i) * every
		for _, tr := range tracks {
			if err := tr.s.Add(at, units.Watts(tr.get(st))); err != nil {
				return err
			}
		}
		prevSelect = st.SelectMicros

		fmt.Printf("poll %d/%d  cycles %d (g/y/r %d/%d/%d)  agents %d\n",
			i+1, n, st.Cycles, st.GreenCycles, st.YellowCycles, st.RedCycles, st.Agents)
		for _, tr := range tracks {
			lo, hi := seriesMinMax(tr.s)
			spark := trace.Sparkline(tr.s, sparkWidth)
			if spark == "" {
				spark = "(gathering)"
			}
			fmt.Printf("  %-9s %12.1f %s %.1f %s\n", tr.name, lo, spark, hi, tr.unit)
		}
	}
	return nil
}

// seriesMinMax scans a series' raw values.
func seriesMinMax(s *metrics.Series) (lo, hi float64) {
	for i := 0; i < s.Len(); i++ {
		_, p := s.At(i)
		v := float64(p)
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
