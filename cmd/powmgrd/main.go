// Command powmgrd runs the global power manager daemon: it accepts agent
// connections, runs the power capping algorithm every control cycle, and
// pushes DVFS level commands back to the agents.
//
//	powmgrd -addr 127.0.0.1:7077 -pl 30kW -ph 33kW -policy mpc
//
// With -lease the daemon renews a leadership lease file every -lease-every
// and fences itself if a higher epoch appears in it. A second powmgrd
// started with -standby-of (the HA group's other members, comma-separated)
// replicates the leader's journal over the wire and promotes itself —
// adopting the replicated journal at a higher epoch — once the lease goes
// stale past -lease-miss-budget renewals. Only a leader listens, so
// -standby-of, like -coordinator, rotates through its list on redial:
//
//	powmgrd -addr :7077 -journal primary.journal -lease /shared/lease.json
//	powmgrd -addr :7078 -journal standby.journal -lease /shared/lease.json \
//	        -standby-of 127.0.0.1:7077
//
// Query either with powctl.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/daemon"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	p := daemon.Flags("powmgrd")
	var (
		addr    = flag.String("addr", "127.0.0.1:7077", "listen address")
		plStr   = flag.String("pl", "30kW", "lower threshold P_L")
		phStr   = flag.String("ph", "33kW", "upper threshold P_H")
		polName = flag.String("policy", "mpc", "target set selection policy")
		period  = flag.Duration("period", time.Second, "control cycle period τ")
		tg      = flag.Int("tg", 10, "steady-green patience T_g (cycles)")
		train   = flag.Duration("learn", 0, "enable §III.A threshold learning with this training window (0 = fixed thresholds)")
		pmaxStr = flag.String("pmax", "40kW", "provision capability seeding the learner (with -learn)")

		heartbeat  = flag.Int("heartbeat-every", 1, "agent heartbeat period in cycles (-1 = disabled)")
		flapWindow = flag.Duration("flap-window", 15*time.Second, "reconnect-flap detection window")
		flapLimit  = flag.Int("flap-limit", 6, "reconnects within the flap window before quarantine (-1 = disabled)")
		quarantine = flag.Duration("quarantine", 30*time.Second, "minimum quarantine duration")

		shards        = flag.Int("shards", 0, "node-state shards, rounded up to a power of two (0 = default)")
		workers       = flag.Int("fanout-workers", 0, "parallelism of each control cycle, its own goroutine included: the goroutines sweeping the node-state shards and writing the cycle's commands (0 = GOMAXPROCS)")
		replicaListen = flag.String("replica-listen", "", "dedicated listener for journal followers and status probes (empty = share -addr)")

		coordinator wire.Group
		cabinet     = flag.Int("cabinet", 0, "cabinet index reported to the coordinator (with -coordinator)")
	)
	flag.Var(&coordinator, "coordinator", "run governed: dial the federation coordinator (powcoordd) at these `addresses` — one, or its HA group's, comma-separated and rotated through on redial (primary,standby) — and cap under its budget grants")
	flag.Parse()

	thr := power.Thresholds{PL: watts(*plStr), PH: watts(*phStr)}
	pol, err := policy.New(*polName, nil)
	if err != nil {
		log.Fatal(err)
	}
	failsafe, err := p.Failsafe(thr)
	if err != nil {
		log.Fatal(err)
	}
	cfg := managerd.Config{
		Addr:             *addr,
		Model:            power.TianheNode(),
		Policy:           pol,
		Tg:               *tg,
		ControlEvery:     *period,
		Thresholds:       thr,
		HeartbeatEvery:   *heartbeat,
		FlapWindow:       *flapWindow,
		FlapLimit:        *flapLimit,
		Quarantine:       *quarantine,
		Shards:           *shards,
		FanoutWorkers:    *workers,
		MetricsAddr:      p.MetricsAddr,
		ReplicaAddr:      *replicaListen,
		CoordinatorAddrs: coordinator,
		Cabinet:          *cabinet,
		BudgetGrace:      p.BudgetGrace,
		FailsafeBudget:   failsafe,
	}
	if *train > 0 {
		cfg.Learn = &managerd.LearnConfig{PMax: watts(*pmaxStr), Training: *train}
	}
	daemon.Run(p, func(ha daemon.HA) (*managerd.Server, error) {
		cfg.HA = ha
		return managerd.New(cfg)
	}, func(srv *managerd.Server) {
		fmt.Printf("powmgrd: listening on %s (policy %s, PL %v, PH %v, τ %v)\n",
			srv.Addr(), *polName, thr.PL, thr.PH, *period)
	}, func(srv *managerd.Server) {
		st := srv.Status()
		fmt.Printf("powmgrd: %d cycles (g/y/r %d/%d/%d), %d degrades, %d restores, cpu %.4f\n",
			st.Cycles, st.GreenCycles, st.YellowCycles, st.RedCycles,
			st.DegradeOps, st.RestoreOps, st.CPUUtilise)
	})
}

func watts(s string) units.Watts {
	w, err := units.ParseWatts(s)
	if err != nil {
		log.Fatal(err)
	}
	return w
}
