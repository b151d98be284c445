// Command powcoordd runs a coordinator tier of the capping federation:
// it owns a power budget and re-divides it across its children — cabinet
// managers (powmgrd instances started with -coordinator) or further
// powcoordd instances in a deeper tree — every coordination cycle.
//
//	powcoordd -addr 127.0.0.1:7070 -budget 120kW -ph 132kW \
//	          -division fair -breaker 40kW -floor 2kW
//
// Each child subscribes and streams aggregate reports; the coordinator
// answers with budget grants, which double as heartbeats — a child cut
// off from the coordinator floors itself to its failsafe band, and its
// budget share is re-divided among the survivors.
//
// With -parent the daemon runs as a row coordinator: it reports its
// fleet roll-up upward to a facility powcoordd under child index -row
// and divides whatever band it is granted (falling back to
// -failsafe-pl/-failsafe-ph after -budget-grace cycles of parent
// silence), so a facility → row → cabinet tree is three powcoordd/powmgrd
// layers speaking one protocol:
//
//	powcoordd -addr :7060 -budget 240kW                 # facility
//	powcoordd -addr :7070 -parent 127.0.0.1:7060 -row 0 # row 0
//	powmgrd   -addr :7077 -coordinator 127.0.0.1:7070   # a cabinet
//
// With -lease the coordinator renews a leadership lease file and
// journals every grant through -journal; a second powcoordd started with
// -standby-of replicates that journal over the wire and promotes itself
// at a higher epoch once the lease goes stale past -lease-miss-budget
// renewals, seeding its grantor from the replicated grants so no cabinet
// floors across the takeover:
//
//	powcoordd -addr :7070 -journal primary.journal -lease /shared/lease.json
//	powcoordd -addr :7071 -journal standby.journal -lease /shared/lease.json \
//	          -standby-of 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powcoordd: ")

	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address for child subscriptions")
		budgetStr  = flag.String("budget", "120kW", "global budget (sum of all grants' P_L)")
		phStr      = flag.String("ph", "", "global upper threshold P_H (default 1.1× budget)")
		divName    = flag.String("division", "proportional", "budget division: uniform, proportional or fair")
		period     = flag.Duration("period", time.Second, "coordination cycle period")
		staleAfter = flag.Duration("stale-after", 0, "mark children lost after this report silence (0 = 3 cycles)")
		breakerStr = flag.String("breaker", "", "per-child breaker rating capping any grant (empty = unbounded)")
		floorStr   = flag.String("floor", "", "per-child weighting floor, reserved for lost children (empty = none)")

		parent      = flag.String("parent", "", "facility coordinator address: run as a row coordinator under it (empty = root)")
		row         = flag.Int("row", 0, "this row's child index under -parent")
		reportEvery = flag.Duration("report-every", 0, "upward reporting period in row mode (0 = -period)")
		budgetGrace = flag.Int("budget-grace", 0, "parent-silent cycles tolerated before flooring to the failsafe band (0 = 3)")
		failsafePL  = flag.String("failsafe-pl", "", "failsafe band P_L divided while the parent is silent (empty = -budget)")
		failsafePH  = flag.String("failsafe-ph", "", "failsafe band P_H (empty = -ph)")

		journalPath = flag.String("journal", "", "grant journal path for restart recovery and standby replication (empty = memory only)")
		leasePath   = flag.String("lease", "", "leadership lease file shared with standbys (empty = HA off)")
		leaseEvery  = flag.Duration("lease-every", 250*time.Millisecond, "lease renewal period")
		standbyOf   = flag.String("standby-of", "", "run as warm standby: replicate this coordinator's journal, promote when its lease goes stale")
		missBudget  = flag.Int("lease-miss-budget", 4, "stale lease renewals a standby tolerates before declaring the leader dead")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics and GET /debug/cycles on this address (empty = disabled)")
	)
	flag.Parse()

	bud, err := units.ParseWatts(*budgetStr)
	if err != nil {
		log.Fatal(err)
	}
	ph := bud * 11 / 10
	if *phStr != "" {
		if ph, err = units.ParseWatts(*phStr); err != nil {
			log.Fatal(err)
		}
	}
	div, err := budget.ParseDivision(*divName)
	if err != nil {
		log.Fatal(err)
	}
	var breaker, floor units.Watts
	if *breakerStr != "" {
		if breaker, err = units.ParseWatts(*breakerStr); err != nil {
			log.Fatal(err)
		}
	}
	if *floorStr != "" {
		if floor, err = units.ParseWatts(*floorStr); err != nil {
			log.Fatal(err)
		}
	}
	var failsafe power.Thresholds
	if *failsafePL != "" {
		if failsafe.PL, err = units.ParseWatts(*failsafePL); err != nil {
			log.Fatal(err)
		}
		failsafe.PH = failsafe.PL * 11 / 10
	}
	if *failsafePH != "" {
		if failsafe.PH, err = units.ParseWatts(*failsafePH); err != nil {
			log.Fatal(err)
		}
	}

	cfg := fedd.Config{
		Addr:         *addr,
		Budget:       bud,
		PH:           ph,
		Division:     div,
		ControlEvery: *period,
		StaleAfter:   *staleAfter,
		Breaker:      breaker,
		FloorW:       floor,
		MetricsAddr:  *metricsAddr,

		ParentAddr:     *parent,
		Row:            *row,
		ReportEvery:    *reportEvery,
		BudgetGrace:    *budgetGrace,
		FailsafeBudget: failsafe,

		HA: daemon.HA{JournalPath: *journalPath},
	}

	var lease *replica.Lease
	if *leasePath != "" {
		lease = &replica.Lease{Path: *leasePath, Every: *leaseEvery}
	}
	if *standbyOf != "" {
		if lease == nil {
			log.Fatal("-standby-of requires -lease (the standby watches the leader's lease file)")
		}
		runStandby(cfg, lease, *standbyOf, *journalPath, *missBudget)
		return
	}
	if lease != nil {
		cfg.Lease = lease
		cfg.LeaseHolder = "primary"
	}

	srv := start(cfg)
	fmt.Printf("powcoordd: listening on %s (budget %v, PH %v, division %s, period %v)\n",
		srv.Addr(), bud, ph, div, *period)
	if *parent != "" {
		fmt.Printf("powcoordd: row %d under facility %s\n", *row, *parent)
	}
	if ma := srv.MetricsAddr(); ma != "" {
		fmt.Printf("powcoordd: metrics on http://%s/metrics (cycles on /debug/cycles)\n", ma)
	}

	awaitSignal()
	fmt.Println("powcoordd: shutting down")
	srv.Stop()
	printSummary(srv)
}

// runStandby replicates the leader's grant journal into the -journal
// path (or memory when empty), watches its lease, and on takeover boots
// the full coordinator from the replicated copy at the claimed epoch.
func runStandby(cfg fedd.Config, lease *replica.Lease, leader, journalPath string, missBudget int) {
	store, err := replica.Open(journalPath)
	if err != nil {
		log.Fatal(err)
	}
	sb, err := daemon.StartStandby(replica.StandbyConfig{
		Follower:   replica.FollowerConfig{Addr: leader, Store: store, Backoff: lease.Period()},
		Lease:      lease,
		MissBudget: missBudget,
		Holder:     "standby",
	}, func(p replica.Promotion) (*fedd.Server, error) {
		cfg.HA = cfg.HA.Promoted(p, lease, "standby")
		srv := start(cfg) // a standby that cannot take over must not linger as one
		fmt.Printf("powcoordd: promoted at epoch %d after %v leaderless, listening on %s\n",
			p.Epoch, p.Leaderless.Round(time.Millisecond), srv.Addr())
		return srv, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("powcoordd: standby of %s (lease %s every %v, miss budget %d)\n",
		leader, lease.Path, lease.Period(), missBudget)

	awaitSignal()
	fmt.Println("powcoordd: shutting down")
	if srv, promoted := sb.Stop(); promoted {
		printSummary(srv)
	}
}

// start boots the daemon cfg describes, or exits.
func start(cfg fedd.Config) *fedd.Server {
	srv, err := daemon.Boot(fedd.New(cfg))
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

func printSummary(srv *fedd.Server) {
	for _, cs := range srv.CabinetStates() {
		fmt.Printf("powcoordd: child %d live=%v grant %.0fW applied %.0fW power %.0fW agents %d/%d\n",
			cs.Cabinet, cs.Live, cs.GrantW, cs.AppliedW, cs.PowerW, cs.Healthy, cs.Agents)
	}
}
