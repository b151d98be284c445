// Command powmgrd runs the global power manager daemon: it accepts agent
// connections, runs the power capping algorithm every control cycle, and
// pushes DVFS level commands back to the agents.
//
//	powmgrd -addr 127.0.0.1:7077 -pl 30kW -ph 33kW -policy mpc
//
// With -lease the daemon renews a leadership lease file every -lease-every
// and fences itself if a higher epoch appears in it. A second powmgrd
// started with -standby-of replicates the leader's journal over the wire
// and promotes itself — adopting the replicated journal at a higher epoch
// — once the lease goes stale past -lease-miss-budget renewals:
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powmgrd: ")

	var (
		addr    = flag.String("addr", "127.0.0.1:7077", "listen address")
		plStr   = flag.String("pl", "30kW", "lower threshold P_L")
		phStr   = flag.String("ph", "33kW", "upper threshold P_H")
		polName = flag.String("policy", "mpc", "target set selection policy")
		period  = flag.Duration("period", time.Second, "control cycle period τ")
		tg      = flag.Int("tg", 10, "steady-green patience T_g (cycles)")
		train   = flag.Duration("learn", 0, "enable §III.A threshold learning with this training window (0 = fixed thresholds)")
		pmaxStr = flag.String("pmax", "40kW", "provision capability seeding the learner (with -learn)")

		journal      = flag.String("journal", "", "crash-recovery journal path (empty = disabled)")
		journalEvery = flag.Int("journal-every", 0, "journal snapshot period in cycles (0 = learner adjustment period)")
		heartbeat    = flag.Int("heartbeat-every", 1, "agent heartbeat period in cycles (-1 = disabled)")
		lostAfter    = flag.Duration("lost-after", 0, "mark silent nodes lost after this (0 = 3× stale window)")
		flapWindow   = flag.Duration("flap-window", 15*time.Second, "reconnect-flap detection window")
		flapLimit    = flag.Int("flap-limit", 6, "reconnects within the flap window before quarantine (-1 = disabled)")
		quarantine   = flag.Duration("quarantine", 30*time.Second, "minimum quarantine duration")

		shards  = flag.Int("shards", 0, "node-state shards, rounded up to a power of two (0 = default)")
		workers = flag.Int("fanout-workers", 0, "command fan-out/retry worker pool size (0 = GOMAXPROCS)")

		metricsAddr  = flag.String("metrics-addr", "", "serve GET /metrics and GET /debug/cycles on this address (empty = disabled)")
		cycleHistory = flag.Int("cycle-history", 0, "staged cycle timelines retained for /debug/cycles (0 = default)")

		leasePath     = flag.String("lease", "", "leadership lease file shared with standbys (empty = HA off)")
		leaseEvery    = flag.Duration("lease-every", 250*time.Millisecond, "lease renewal period")
		standbyOf     = flag.String("standby-of", "", "run as warm standby: replicate this manager's journal, promote when its lease goes stale")
		missBudget    = flag.Int("lease-miss-budget", 4, "stale lease renewals a standby tolerates before declaring the leader dead")
		replicaListen = flag.String("replica-listen", "", "dedicated listener for journal followers and status probes (empty = share -addr)")

		codec = flag.String("codec", "binary", "preferred wire codec negotiated with agents and followers: binary or json")

		coordinator = flag.String("coordinator", "", "run governed: dial this federation coordinator (powcoordd) and cap under its budget grants")
		cabinet     = flag.Int("cabinet", 0, "cabinet index reported to the coordinator (with -coordinator)")
		reportEvery = flag.Duration("report-every", 0, "cabinet report period (0 = control period)")
		budgetGrace = flag.Int("budget-grace", 3, "control periods of coordinator silence tolerated before flooring to the failsafe band")
		failsafePL  = flag.String("failsafe-pl", "", "failsafe band P_L enforced on coordinator silence (empty = hold -pl/-ph)")
		failsafePH  = flag.String("failsafe-ph", "", "failsafe band P_H (with -failsafe-pl)")
	)
	flag.Parse()

	pl, err := units.ParseWatts(*plStr)
	if err != nil {
		log.Fatal(err)
	}
	ph, err := units.ParseWatts(*phStr)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := policy.New(*polName, nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg := managerd.Config{
		Addr:           *addr,
		Model:          power.TianheNode(),
		Policy:         pol,
		Tg:             *tg,
		ControlEvery:   *period,
		Thresholds:     power.Thresholds{PL: pl, PH: ph},
		HA:             daemon.HA{JournalPath: *journal},
		JournalEvery:   *journalEvery,
		HeartbeatEvery: *heartbeat,
		LostAfter:      *lostAfter,
		FlapWindow:     *flapWindow,
		FlapLimit:      *flapLimit,
		Quarantine:     *quarantine,
		Shards:         *shards,
		FanoutWorkers:  *workers,
		MetricsAddr:    *metricsAddr,
		CycleHistory:   *cycleHistory,
		ReplicaAddr:    *replicaListen,
		WireCodec:      *codec,
	}
	if *coordinator != "" {
		cfg.CoordinatorAddr = *coordinator
		cfg.Cabinet = *cabinet
		cfg.ReportEvery = *reportEvery
		cfg.BudgetGrace = *budgetGrace
		if *failsafePL != "" {
			fpl, err := units.ParseWatts(*failsafePL)
			if err != nil {
				log.Fatal(err)
			}
			fph, err := units.ParseWatts(*failsafePH)
			if err != nil {
				log.Fatal(err)
			}
			cfg.FailsafeBudget = power.Thresholds{PL: fpl, PH: fph}
		}
	}
	if *train > 0 {
		pm, err := units.ParseWatts(*pmaxStr)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Learn = &managerd.LearnConfig{PMax: pm, Training: *train}
	}
	var lease *replica.Lease
	if *leasePath != "" {
		lease = &replica.Lease{Path: *leasePath, Every: *leaseEvery}
	}
	if *standbyOf != "" {
		if lease == nil {
			log.Fatal("-standby-of requires -lease (the standby watches the leader's lease file)")
		}
		runStandby(cfg, lease, *standbyOf, *journal, *missBudget)
		return
	}
	if lease != nil {
		cfg.Lease = lease
		cfg.LeaseHolder = "primary"
	}
	srv := start(cfg)
	fmt.Printf("powmgrd: listening on %s (policy %s, PL %v, PH %v, τ %v)\n",
		srv.Addr(), *polName, pl, ph, *period)
	if ma := srv.MetricsAddr(); ma != "" {
		fmt.Printf("powmgrd: metrics on http://%s/metrics (cycles on /debug/cycles)\n", ma)
	}

	awaitSignal()
	fmt.Println("powmgrd: shutting down")
	srv.Stop()
	printSummary(srv)
}

// runStandby replicates the leader's journal into the -journal path (or
// memory when empty), watches its lease, and on takeover boots the full
// daemon from the replicated copy at the claimed epoch.
func runStandby(cfg managerd.Config, lease *replica.Lease, leader, journalPath string, missBudget int) {
	store, err := replica.Open(journalPath)
	if err != nil {
		log.Fatal(err)
	}
	sb, err := daemon.StartStandby(replica.StandbyConfig{
		Follower:   replica.FollowerConfig{Addr: leader, Store: store, Backoff: lease.Period()},
		Lease:      lease,
		MissBudget: missBudget,
		Holder:     "standby",
	}, func(p replica.Promotion) (*managerd.Server, error) {
		cfg.HA = cfg.HA.Promoted(p, lease, "standby")
		srv := start(cfg) // a standby that cannot take over must not linger as one
		fmt.Printf("powmgrd: promoted at epoch %d after %v leaderless, listening on %s\n",
			p.Epoch, p.Leaderless.Round(time.Millisecond), srv.Addr())
		return srv, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("powmgrd: standby of %s (lease %s every %v, miss budget %d)\n",
		leader, lease.Path, lease.Period(), missBudget)

	awaitSignal()
	fmt.Println("powmgrd: shutting down")
	if srv, promoted := sb.Stop(); promoted {
		printSummary(srv)
	}
}

// start boots the daemon cfg describes, or exits.
func start(cfg managerd.Config) *managerd.Server {
	srv, err := daemon.Boot(managerd.New(cfg))
	if err != nil {
		log.Fatal(err)
	}
	return srv
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}

func printSummary(srv *managerd.Server) {
	st := srv.Status()
	fmt.Printf("powmgrd: %d cycles (g/y/r %d/%d/%d), %d degrades, %d restores, cpu %.4f\n",
		st.Cycles, st.GreenCycles, st.YellowCycles, st.RedCycles,
		st.DegradeOps, st.RestoreOps, st.CPUUtilise)
}
