package replica

import (
	"errors"
	"time"

	"context"

	"repro/internal/obs"
)

// Promotion is handed to StandbyConfig.OnPromote when the standby takes
// over: the replicated store (now stamped with the new epoch) and how
// long the fleet had been leaderless when death was declared.
type Promotion struct {
	Store      *Store
	Epoch      uint64
	Leaderless time.Duration
}

// DefaultMissBudget is the stale lease renewals a standby tolerates when
// its config names none.
const DefaultMissBudget = 4

// StandbyConfig configures a warm standby.
type StandbyConfig struct {
	// Follower replicates the leader's journal while it lives. Its Store
	// becomes the promoted manager's journal.
	Follower FollowerConfig
	// Lease is the leadership lease the leader renews. Required.
	Lease *Lease
	// MissBudget is how many renewal periods the lease may go stale (or
	// unreadable) before the leader is declared dead; zero takes
	// DefaultMissBudget.
	MissBudget int
	// Holder names this standby in the lease file after takeover.
	Holder string
	// OnPromote starts the replacement manager (bind the listen address,
	// adopt Promotion.Store at Promotion.Epoch). Run returns its error.
	OnPromote func(Promotion) error
	// Obs is the instrument registry; nil builds a private one.
	Obs *obs.Registry
}

// Standby replicates a leader's journal and watches its lease. Once the
// lease goes stale past the miss budget — or Promote is called — it
// stops the follower, bumps the epoch past everything it has seen,
// claims the lease, and calls OnPromote with its journal copy. Epoch
// fencing makes the handoff safe even if the old leader was merely
// paused: agents that have seen the new epoch refuse the old leader's
// hello, and the old leader self-fences when it reads the claimed lease.
type Standby struct {
	cfg      StandbyConfig
	follower *Follower
	reg      *obs.Registry
	force    chan struct{}
	promoted chan struct{}
	takeover *obs.Gauge
}

// NewStandby validates cfg and builds a standby.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Lease == nil {
		return nil, errors.New("replica: standby needs a lease")
	}
	if cfg.OnPromote == nil {
		return nil, errors.New("replica: standby needs an OnPromote hook")
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = DefaultMissBudget
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Follower.Obs == nil {
		cfg.Follower.Obs = cfg.Obs
	}
	f, err := NewFollower(cfg.Follower)
	if err != nil {
		return nil, err
	}
	return &Standby{
		cfg:      cfg,
		follower: f,
		reg:      cfg.Obs,
		force:    make(chan struct{}, 1),
		promoted: make(chan struct{}),
		takeover: cfg.Obs.Gauge("last_takeover_micros"),
	}, nil
}

// Obs returns the standby's instrument registry.
func (s *Standby) Obs() *obs.Registry { return s.reg }

// Store returns the replicated journal copy.
func (s *Standby) Store() *Store { return s.cfg.Follower.Store }

// Promote forces an immediate takeover regardless of lease state.
func (s *Standby) Promote() {
	select {
	case s.force <- struct{}{}:
	default:
	}
}

// Promoted is closed once OnPromote has returned successfully.
func (s *Standby) Promoted() <-chan struct{} { return s.promoted }

// Run replicates and watches the lease until promotion or cancellation.
// It returns nil on a clean cancel, or OnPromote's error. Death is
// declared only after the lease has been observed alive at least once —
// a standby started before its primary waits instead of seizing an empty
// lease.
func (s *Standby) Run(ctx context.Context) error {
	fctx, fcancel := context.WithCancel(ctx)
	fdone := make(chan struct{})
	go func() {
		defer close(fdone)
		_ = s.follower.Run(fctx)
	}()
	stopFollower := func() {
		fcancel()
		<-fdone
	}

	every := s.cfg.Lease.Period()
	budget := time.Duration(s.cfg.MissBudget) * every
	tick := time.NewTicker(every)
	defer tick.Stop()

	var last LeaseState
	seen := false
	misses := 0
	for {
		select {
		case <-ctx.Done():
			stopFollower()
			return nil
		case <-s.force:
			stopFollower()
			return s.promote(last, 0)
		case <-tick.C:
			st, err := s.cfg.Lease.Read()
			if err != nil {
				if seen {
					misses++
				}
			} else {
				misses = 0
				seen = true
				last = st
			}
			if !seen {
				continue
			}
			stale := time.Since(last.RenewedAt)
			if misses > s.cfg.MissBudget || (misses == 0 && stale > budget) {
				stopFollower()
				return s.promote(last, stale)
			}
		}
	}
}

func (s *Standby) promote(last LeaseState, leaderless time.Duration) error {
	t0 := time.Now()
	store := s.cfg.Follower.Store
	epoch := last.Epoch
	// A forced promotion can outrun the tick loop's first lease read, and
	// the journal may be empty on a green fleet: re-read the lease so the
	// claimed epoch always supersedes a still-breathing incumbent's.
	if st, err := s.cfg.Lease.Read(); err == nil && st.Epoch > epoch {
		epoch = st.Epoch
	}
	if se := store.Epoch(); se > epoch {
		epoch = se
	}
	epoch++
	store.SetEpoch(epoch)
	_ = s.cfg.Lease.Write(LeaseState{Epoch: epoch, Holder: s.cfg.Holder, RenewedAt: time.Now()})
	if err := s.cfg.OnPromote(Promotion{Store: store, Epoch: epoch, Leaderless: leaderless}); err != nil {
		return err
	}
	total := leaderless + time.Since(t0)
	s.takeover.SetInt(total.Microseconds())
	s.reg.Histogram("takeover_micros").Observe(float64(total.Microseconds()))
	close(s.promoted)
	return nil
}
