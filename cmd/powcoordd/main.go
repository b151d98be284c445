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
// floors across the takeover. Only the leader listens, so children given
// the pair as a comma list (-coordinator or -parent 127.0.0.1:7070,127.0.0.1:7071)
// rotate onto the promoted standby on redial:
//
//	powcoordd -addr :7070 -journal primary.journal -lease /shared/lease.json
//	powcoordd -addr :7071 -journal standby.journal -lease /shared/lease.json \
//	          -standby-of 127.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/fedd"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	p := daemon.Flags("powcoordd")
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address for child subscriptions")
		budgetStr  = flag.String("budget", "120kW", "global budget (sum of all grants' P_L)")
		phStr      = flag.String("ph", "", "global upper threshold P_H (default 1.1× budget)")
		divName    = flag.String("division", "proportional", "budget division: uniform, proportional or fair")
		period     = flag.Duration("period", time.Second, "coordination cycle period")
		staleAfter = flag.Duration("stale-after", 0, "mark children lost after this report silence (0 = 3 cycles)")
		breakerStr = flag.String("breaker", "", "per-child breaker rating capping any grant (empty = unbounded)")
		floorStr   = flag.String("floor", "", "per-child weighting floor, reserved for lost children (empty = none)")

		parent wire.Group
		row    = flag.Int("row", 0, "this row's child index under -parent")
	)
	flag.Var(&parent, "parent", "facility coordinator `addresses` — one, or its HA group's, comma-separated and rotated through on redial: run as a row coordinator under it (empty = root)")
	flag.Parse()

	bud := watts(*budgetStr)
	ph := bud * 11 / 10
	if *phStr != "" {
		ph = watts(*phStr)
	}
	div, err := budget.ParseDivision(*divName)
	if err != nil {
		log.Fatal(err)
	}
	failsafe, err := p.Failsafe(power.Thresholds{PL: bud, PH: ph})
	if err != nil {
		log.Fatal(err)
	}
	cfg := fedd.Config{
		Addr:           *addr,
		Budget:         bud,
		PH:             ph,
		Division:       div,
		ControlEvery:   *period,
		StaleAfter:     *staleAfter,
		Breaker:        watts(*breakerStr),
		FloorW:         watts(*floorStr),
		MetricsAddr:    p.MetricsAddr,
		ParentAddrs:    parent,
		Row:            *row,
		BudgetGrace:    p.BudgetGrace,
		FailsafeBudget: failsafe,
	}
	daemon.Run(p, func(ha daemon.HA) (*fedd.Server, error) {
		cfg.HA = ha
		return fedd.New(cfg)
	}, func(srv *fedd.Server) {
		fmt.Printf("powcoordd: listening on %s (budget %v, PH %v, division %s, period %v)\n",
			srv.Addr(), bud, ph, div, *period)
		if len(parent) > 0 {
			fmt.Printf("powcoordd: row %d under facility %s\n", *row, parent)
		}
	}, func(srv *fedd.Server) {
		for _, cs := range srv.CabinetStates() {
			fmt.Printf("powcoordd: child %d live=%v grant %.0fW applied %.0fW power %.0fW agents %d/%d\n",
				cs.Cabinet, cs.Live, cs.GrantW, cs.AppliedW, cs.PowerW, cs.Healthy, cs.Agents)
		}
	})
}

// watts parses a power flag; empty is zero.
func watts(s string) units.Watts {
	if s == "" {
		return 0
	}
	w, err := units.ParseWatts(s)
	if err != nil {
		log.Fatal(err)
	}
	return w
}
