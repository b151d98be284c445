// Command powagentd runs one per-node profiling agent: it drives a
// simulated Tianhe node under a synthetic load pattern in real time,
// samples its kernel counters every sampling interval, pushes the readings
// to powmgrd, and applies the power level commands sent back.
//
//	powagentd -manager 127.0.0.1:7077 -node 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/agentd"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powagentd: ")

	var (
		manager = wire.Group{"127.0.0.1:7077"}
		id      = flag.Int("node", 0, "node identity")
		sample  = flag.Duration("sample", time.Second, "sampling/push interval τ")
		tick    = flag.Duration("tick", 100*time.Millisecond, "simulated node tick")
		seed    = flag.Int64("seed", 0, "synthetic load seed (0 = node id)")

		failsafeAfter = flag.Int("failsafe-after", 0, "dead-man switch: silent sample periods before self-degrading (0 = disabled)")
		failsafeLevel = flag.Int("failsafe-level", 0, "dead-man switch floor level")

		initialBackoff = flag.Duration("initial-backoff", 200*time.Millisecond, "reconnect backoff floor")
		maxBackoff     = flag.Duration("max-backoff", 10*time.Second, "reconnect backoff ceiling")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	)
	flag.Var(&manager, "manager", "manager daemon `addresses`: one, or a comma-separated list rotated through on reconnect (primary,standby)")
	flag.Parse()
	if *seed == 0 {
		*seed = int64(*id) + 1
	}
	if len(manager) == 0 {
		log.Fatal("-manager must name at least one address")
	}

	a, err := agentd.New(agentd.Config{
		NodeID:        node.ID(*id),
		ManagerAddrs:  manager,
		SampleEvery:   *sample,
		TickEvery:     *tick,
		Model:         power.TianheNode(),
		Seed:          *seed,
		FailsafeAfter: *failsafeAfter,
		FailsafeLevel: *failsafeLevel,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { <-sig; cancel() }()

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		msrv := &http.Server{Handler: obs.NewMux(a.Registry(), nil, nil)}
		go func() { _ = msrv.Serve(ln) }()
		defer msrv.Close()
		fmt.Printf("powagentd: metrics on http://%s/metrics\n", ln.Addr())
	}

	fmt.Printf("powagentd: node %d → %s (τ %v)\n", *id, manager, *sample)
	// Reconnect with backoff: a manager restart must not take the fleet
	// of agents down with it.
	a.RunWithReconnect(ctx, *initialBackoff, *maxBackoff)
	fmt.Printf("powagentd: node %d stopped after %d applied commands (level %d, failsafe trips %d)\n",
		*id, a.CommandsApplied(), a.Level(), a.FailsafeTrips())
}
