package daemon

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/units"
	"repro/internal/wire"
)

// DefaultBudgetGrace is how many control periods of parent silence a
// governed daemon tolerates before flooring itself to its failsafe band.
const DefaultBudgetGrace = 3

// Process is the command-line half of the chassis: the flags powmgrd and
// powcoordd share, and the one lifecycle both run (Run).
type Process struct {
	name string

	// MetricsAddr and BudgetGrace are -metrics-addr and -budget-grace, for
	// the role's config.
	MetricsAddr string
	BudgetGrace int

	journal, lease         string
	standbyOf              wire.Group
	failsafePL, failsafePH string
	leaseEvery             time.Duration
	missBudget             int
}

// Flags sets the log prefix to name and registers the shared flags on the
// command line; call it before flag.Parse.
func Flags(name string) *Process {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	p := &Process{name: name}
	flag.StringVar(&p.journal, "journal", "", "journal path for restart recovery and standby replication (empty = memory only)")
	flag.StringVar(&p.lease, "lease", "", "leadership lease file shared with standbys; each epoch is claimed once by a claim file <lease>.e<N> beside it (empty = HA off)")
	flag.DurationVar(&p.leaseEvery, "lease-every", 250*time.Millisecond, "lease renewal period")
	flag.Var(&p.standbyOf, "standby-of", "run as warm standby: replicate the journal of whichever of these `addresses` leads (the HA group's other members, comma-separated), promote when its lease goes stale")
	flag.IntVar(&p.missBudget, "lease-miss-budget", DefaultMissBudget, "stale lease renewals a standby tolerates before declaring the leader dead")
	flag.StringVar(&p.MetricsAddr, "metrics-addr", "", "serve GET /metrics and GET /debug/cycles on this address (empty = disabled)")
	flag.IntVar(&p.BudgetGrace, "budget-grace", DefaultBudgetGrace, "control periods of parent silence tolerated before flooring to the failsafe band")
	flag.StringVar(&p.failsafePL, "failsafe-pl", "", "failsafe band P_L enforced on parent silence (empty = hold the daemon's own band)")
	flag.StringVar(&p.failsafePH, "failsafe-ph", "", "failsafe band P_H, with -failsafe-pl (empty = P_L × the daemon's own PH/PL)")
	return p
}

// Failsafe is the band -failsafe-pl and -failsafe-ph name against own, the
// daemon's own band: zero when both are empty (Govern then holds own), and
// an omitted P_H is P_L scaled by own's PH/PL. P_H alone is refused.
func (p *Process) Failsafe(own power.Thresholds) (fs power.Thresholds, err error) {
	if p.failsafePL == "" {
		if p.failsafePH != "" {
			err = errors.New("-failsafe-ph needs -failsafe-pl (P_H alone names no band)")
		}
		return fs, err
	}
	if fs.PL, err = units.ParseWatts(p.failsafePL); err != nil {
		return fs, err
	}
	fs.PH = fs.PL * own.PH / own.PL
	if p.failsafePH != "" {
		fs.PH, err = units.ParseWatts(p.failsafePH)
	}
	return fs, err
}

// Run boots the daemon build makes from the shared flags' HA — the primary,
// or with -standby-of a warm standby that boots it on promotion — then waits
// for SIGINT or SIGTERM, stops it and, if one ran, calls summary. banner
// announces a primary once it listens. Any failure to boot exits, but for a
// standby's claim lost to a rival standby: it goes on following.
func Run[S interface {
	Start() error
	Stop()
	Addr() string
	MetricsAddr() string
	Epoch() uint64
}](p *Process, build func(HA) (S, error), banner, summary func(S)) {
	var lease *replica.Lease
	if p.lease != "" {
		lease = &replica.Lease{Path: p.lease, Every: p.leaseEvery}
	}
	start := func(ha HA, announce func(S)) (S, error) {
		srv, err := Boot(build(ha))
		if ha.Journal != nil && errors.Is(err, replica.ErrClaimed) {
			p.printf("%v; following the winner", err)
			return srv, err
		}
		if err != nil {
			log.Fatal(err)
		}
		announce(srv)
		if ma := srv.MetricsAddr(); ma != "" {
			p.printf("metrics on http://%s/metrics (cycles on /debug/cycles)", ma)
		}
		return srv, nil
	}
	var stop func() (S, bool)
	if len(p.standbyOf) == 0 {
		ha := HA{JournalPath: p.journal}
		if lease != nil {
			ha.Lease, ha.LeaseHolder = lease, "primary"
		}
		srv, _ := start(ha, banner)
		stop = func() (S, bool) { srv.Stop(); return srv, true }
	} else {
		if lease == nil {
			log.Fatal("-standby-of requires -lease (the standby watches the leader's lease file)")
		}
		sb, err := StartStandby(StandbyConfig{
			JournalPath: p.journal,
			Follower:    replica.FollowerConfig{Addrs: p.standbyOf, Backoff: lease.Period()},
			Lease:       lease,
			MissBudget:  p.missBudget,
			Holder:      "standby",
		}, func(ha HA) (S, error) {
			// A standby that lost its claim to a rival keeps following;
			// one that cannot take over for any other reason exits.
			return start(ha, func(srv S) {
				p.printf("promoted at epoch %d after %v leaderless, listening on %s",
					srv.Epoch(), (time.Duration(ha.TakeoverMicros) * time.Microsecond).Round(time.Millisecond), srv.Addr())
			})
		})
		if err != nil {
			log.Fatal(err)
		}
		p.printf("standby of %s (lease %s every %v, miss budget %d)", p.standbyOf, lease.Path, lease.Period(), missBudget(p.missBudget))
		stop = sb.Stop
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	p.printf("shutting down")
	if srv, ran := stop(); ran {
		summary(srv)
	}
}

func (p *Process) printf(format string, args ...any) {
	fmt.Printf(p.name+": "+format+"\n", args...)
}
