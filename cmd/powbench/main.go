// Command powbench is the open-loop scenario driver: it replays the
// seeded scenario library (internal/scenario) as synthetic agent fleets
// over the real wire protocol against a live powmgrd, measuring what the
// cap and its operators experience — sample send lag against the
// open-loop schedule, status round-trip latency under load, peak power,
// worst control-cycle time — and persists per-scenario results to
// BENCH_scenarios.json for benchguard to hold the line on.
//
// By default each scenario gets a fresh embedded manager daemon on a
// loopback TCP port, with thresholds derived from the scenario (so every
// scenario engages its cap the way it was scripted to). Point -addr at
// an already-running powmgrd to drive that instead; its configured
// thresholds then apply.
//
// Examples:
//
//	powbench                                   # all scenarios, embedded daemon
//	powbench -scenarios flash-crowd,diurnal    # a subset
//	powbench -connections 64 -cycles 300       # scale the fleet and script
//	powbench -addr 127.0.0.1:7077              # drive an external powmgrd
//	powbench -list                             # show the library
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/scenario"
)

// benchModel is the fleet's power profile model — the same testbed node
// the daemons and scenarios use.
var benchModel = power.TianheNode()

func main() {
	var (
		scenarios   = flag.String("scenarios", "all", "comma-separated scenario names, or \"all\"")
		seed        = flag.Int64("seed", 1, "scenario script seed")
		addr        = flag.String("addr", "", "drive this running powmgrd (empty = embedded daemon per scenario)")
		connections = flag.Int("connections", 0, "agent connections per scenario (0 = scenario default)")
		cycles      = flag.Int("cycles", 0, "script length in cycles (0 = scenario default)")
		duration    = flag.Duration("duration", 0, "wall-clock cap per scenario (0 = run the full script)")
		workers     = flag.Int("workers", 8, "sender goroutines the fleet is partitioned across")
		pipeline    = flag.Int("pipeline", 1, "burst depth: cycles' samples written back-to-back per wakeup")
		sampleEvery = flag.Duration("sample-every", 25*time.Millisecond, "open-loop sample period per agent")
		statusEvery = flag.Duration("status-every", 100*time.Millisecond, "status probe period")
		ctrlEvery   = flag.Duration("control-every", 25*time.Millisecond, "embedded daemon control period")
		out         = flag.String("out", "BENCH_scenarios.json", "merge results into this JSON file (empty = don't persist)")
		list        = flag.Bool("list", false, "list the scenario library and exit")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenario.All() {
			fmt.Printf("%-18s %3d agents × %3d cycles  policy=%-6s  %s\n",
				sc.Name, sc.Agents, sc.Cycles, sc.Policy, sc.About)
		}
		return
	}

	picked, err := pickScenarios(*scenarios)
	if err != nil {
		fatal(err)
	}

	var entries []scenarioEntry
	for _, sc := range picked {
		sc = sc.Scaled(*connections, *cycles)
		runAddr := *addr
		var stop func()
		if runAddr == "" {
			if sc.FailoverFrac > 0 {
				runAddr, stop, err = spawnFailoverDaemon(sc, *ctrlEvery, *sampleEvery)
			} else {
				runAddr, stop, err = spawnDaemon(sc, *ctrlEvery)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: spawn daemon: %w", sc.Name, err))
			}
		}
		fmt.Printf("▶ %-18s %3d agents × %3d cycles @ %v (pipeline %d) → %s\n",
			sc.Name, sc.Agents, sc.Cycles, *sampleEvery, *pipeline, runAddr)
		entry, err := runScenario(engineConfig{
			Addr: runAddr, SC: sc, Seed: *seed,
			Workers: *workers, Pipeline: *pipeline,
			SampleEvery: *sampleEvery, StatusEvery: *statusEvery,
			Duration: *duration,
		})
		if stop != nil {
			stop()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sc.Name, err))
		}
		printEntry(entry)
		entries = append(entries, entry)
	}

	if *out != "" && len(entries) > 0 {
		if err := mergeEntries(*out, entries); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d scenarios)\n", *out, len(entries))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "powbench:", err)
	os.Exit(1)
}

// pickScenarios resolves the -scenarios flag against the library.
func pickScenarios(names string) ([]scenario.Scenario, error) {
	if names == "all" || names == "" {
		return scenario.All(), nil
	}
	var out []scenario.Scenario
	for _, name := range strings.Split(names, ",") {
		sc, err := scenario.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// spawnDaemon boots an embedded manager daemon on a loopback port with
// the scenario's own policy, patience and thresholds — a live powmgrd in
// all but process boundary.
func spawnDaemon(sc scenario.Scenario, ctrlEvery time.Duration) (string, func(), error) {
	pol, err := policy.New(sc.Policy, rand.New(rand.NewSource(1)))
	if err != nil {
		return "", nil, err
	}
	srv, err := daemon.Boot(managerd.New(managerd.Config{
		Addr:           "127.0.0.1:0",
		Model:          benchModel,
		Policy:         pol,
		Tg:             sc.Tg,
		ControlEvery:   ctrlEvery,
		Thresholds:     sc.Thresholds(benchModel),
		CommandTimeout: 2 * time.Second,
		FlapLimit:      -1, // reconnect herds are the point, not a fault
	}))
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Stop, nil
}

// spawnFailoverDaemon boots the HA pair a failover scenario scripts: a
// leased primary plus a warm standby replicating its journal over TCP. A
// timer kills the primary at the scripted failover cycle; the standby
// declares death via the stale lease, and the promoted manager rebinds
// the primary's TCP address so the fleet's open-loop redials land on the
// new leader without the driver knowing anything changed.
func spawnFailoverDaemon(sc scenario.Scenario, ctrlEvery, sampleEvery time.Duration) (string, func(), error) {
	pol, err := policy.New(sc.Policy, rand.New(rand.NewSource(1)))
	if err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "powbench-ha-")
	if err != nil {
		return "", nil, err
	}
	lease := &replica.Lease{Path: filepath.Join(dir, "lease.json"), Every: 10 * time.Millisecond}
	base := managerd.Config{
		Model:          benchModel,
		Policy:         pol,
		Tg:             sc.Tg,
		ControlEvery:   ctrlEvery,
		Thresholds:     sc.Thresholds(benchModel),
		CommandTimeout: 2 * time.Second,
		FlapLimit:      -1,
		HA:             daemon.HA{Lease: lease},
	}

	pcfg := base
	pcfg.Addr = "127.0.0.1:0"
	pcfg.Epoch = 1
	pcfg.LeaseHolder = "primary"
	primary, err := daemon.Boot(managerd.New(pcfg))
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	addr := primary.Addr()

	store, err := replica.Open("")
	if err != nil {
		primary.Stop()
		os.RemoveAll(dir)
		return "", nil, err
	}
	sb, err := daemon.StartStandby(replica.StandbyConfig{
		Follower:   replica.FollowerConfig{Addr: addr, Store: store, Backoff: 10 * time.Millisecond},
		Lease:      lease,
		MissBudget: 5,
		Holder:     "standby",
	}, func(p replica.Promotion) (*managerd.Server, error) {
		// The dead primary's port frees as its listener closes; retry
		// the exact address so the fleet's redials need no new config.
		var ln net.Listener
		deadline := time.Now().Add(5 * time.Second)
		for {
			var err error
			if ln, err = net.Listen("tcp", addr); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("rebind %s: %w", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		cfg := base
		cfg.Listener = ln
		cfg.HA = cfg.HA.Promoted(p, lease, "standby")
		srv, err := daemon.Boot(managerd.New(cfg))
		if err != nil {
			ln.Close()
			return nil, err
		}
		fmt.Printf("  ⇄ failover: standby promoted at epoch %d (leaderless %v)\n",
			p.Epoch, p.Leaderless.Round(time.Millisecond))
		return srv, nil
	})
	if err != nil {
		primary.Stop()
		os.RemoveAll(dir)
		return "", nil, err
	}
	killAfter := time.Duration(sc.FailoverFrac * float64(sc.Cycles) * float64(sampleEvery))
	killer := time.AfterFunc(killAfter, primary.Stop)

	stop := func() {
		killer.Stop()
		sb.Stop()
		primary.Stop()
		os.RemoveAll(dir)
	}
	return addr, stop, nil
}

func printEntry(e scenarioEntry) {
	fmt.Printf("  samples=%d commands=%d acks=%d reconnects=%d errors=%d\n",
		e.SamplesSent, e.CommandsSeen, e.AcksSent, e.Reconnects, e.SendErrors)
	fmt.Printf("  send-lag p50/p99 = %.0f/%.0f µs   status p50/p99 = %.0f/%.0f µs\n",
		e.SendLagP50US, e.SendLagP99US, e.StatusP50US, e.StatusP99US)
	fmt.Printf("  peak power %.0f W   worst cycle %d µs   red entries %d   degrades %d   min level %d\n",
		e.MaxPowerW, e.MaxCycleUS, e.RedEntries, e.DegradeOps, e.MinLevel)
}

// mergeEntries folds this run's entries into the persisted file, keyed by
// (scenario, agents): same-key entries are replaced, others kept, output
// sorted — the same trajectory discipline as BENCH_fanout.json.
func mergeEntries(path string, fresh []scenarioEntry) error {
	byKey := map[string]scenarioEntry{}
	if data, err := os.ReadFile(path); err == nil {
		var old []scenarioEntry
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range old {
			byKey[fmt.Sprintf("%s/%d", e.Scenario, e.Agents)] = e
		}
	}
	for _, e := range fresh {
		byKey[fmt.Sprintf("%s/%d", e.Scenario, e.Agents)] = e
	}
	merged := make([]scenarioEntry, 0, len(byKey))
	for _, e := range byKey {
		merged = append(merged, e)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Scenario != merged[j].Scenario {
			return merged[i].Scenario < merged[j].Scenario
		}
		return merged[i].Agents < merged[j].Agents
	})
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
