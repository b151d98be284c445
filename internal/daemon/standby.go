package daemon

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/replica"
)

// DefaultMissBudget is the stale lease renewals a standby tolerates when
// its config names none.
const DefaultMissBudget = 4

// missBudget is the budget in force for a configured n.
func missBudget(n int) int {
	if n <= 0 {
		return DefaultMissBudget
	}
	return n
}

// StandbyConfig configures a warm standby.
type StandbyConfig struct {
	// JournalPath is where the standby keeps its copy of the leader's
	// journal, opened by the daemons' rule (HA.JournalPath): empty keeps
	// it in memory. The copy becomes the promoted daemon's journal.
	JournalPath string
	// Follower replicates the leader's journal into that copy while the
	// leader lives. Leave its Store nil: StartStandby sets it.
	Follower replica.FollowerConfig
	// Lease is the leadership lease the leader renews. Required.
	Lease *replica.Lease
	// MissBudget is how many renewal periods the lease may go stale (or
	// unreadable) before the leader is declared dead; zero or less takes
	// DefaultMissBudget.
	MissBudget int
	// Holder names the promoted daemon in the lease file.
	Holder string
}

// WarmStandby replicates a leader's journal and watches its lease, and
// boots the daemon that takes over — the one promotion path behind powmgrd
// and powcoordd -standby-of, powbench's failover scenario and the harness
// standbys. It picks no epoch and writes no lease: the daemon it boots
// claims both, in New and Start, by the same rule as any other.
type WarmStandby[S interface{ Stop() }] struct {
	cfg    StandbyConfig
	force  chan struct{}
	cancel context.CancelFunc
	done   chan struct{} // the watcher has returned
	srvCh  chan S        // the promoted daemon, until Await collects it
	errCh  chan error    // boot's error
}

// StartStandby opens the journal copy, starts replicating into it and
// watches the lease. Once the lease goes stale past the miss budget — or
// Promote is called — it stops the follower, raises the replicated
// store's epoch to the last one the lease showed (so the successor
// supersedes it even if the file has since become unreadable), and calls
// boot once with the HA the successor runs under: the store as its
// journal, the lease under cfg.Holder, and the leaderless time. Death is
// declared only after the lease has been seen alive once: a standby
// started before its primary waits instead of seizing an empty lease. A
// boot refused because a rival claimed the epoch first
// (replica.ErrClaimed) keeps the copy and goes back to watching, its
// follower finding the winner among Follower.Addrs; any other boot error,
// or a stop before promotion, closes the copy. Either refusal is what the
// next Await returns. A promoted daemon owns the copy from then on.
func StartStandby[S interface{ Stop() }](cfg StandbyConfig, boot func(HA) (S, error)) (*WarmStandby[S], error) {
	if cfg.Lease == nil {
		return nil, errors.New("daemon: standby needs a lease")
	}
	if cfg.Follower.Store != nil {
		return nil, errors.New("daemon: a standby opens its own journal copy from JournalPath")
	}
	cfg.MissBudget = missBudget(cfg.MissBudget)
	store, err := openJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	cfg.Follower.Store = store
	f, err := replica.NewFollower(cfg.Follower)
	if err != nil {
		store.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &WarmStandby[S]{
		cfg:    cfg,
		force:  make(chan struct{}, 1),
		cancel: cancel,
		done:   make(chan struct{}),
		srvCh:  make(chan S, 1),
		errCh:  make(chan error, 1),
	}
	go func() {
		defer close(h.done)
		for {
			last, leaderless, ok := h.watch(ctx, f)
			if !ok {
				store.Close()
				return
			}
			store.SetEpoch(last.Epoch)
			srv, err := boot(HA{Journal: store, Lease: cfg.Lease, LeaseHolder: cfg.Holder, TakeoverMicros: leaderless.Microseconds()})
			if err == nil {
				h.srvCh <- srv
				return
			}
			select {
			case h.errCh <- err:
			default: // an earlier refusal is still uncollected
			}
			if !errors.Is(err, replica.ErrClaimed) {
				store.Close()
				return
			}
		}
	}()
	return h, nil
}

// watch runs f and reads the lease every period until the leader is
// declared dead or Promote is called (ok) or ctx ends, and returns with f
// stopped: the last lease read and how long it had gone unrenewed.
func (h *WarmStandby[S]) watch(ctx context.Context, f *replica.Follower) (last replica.LeaseState, leaderless time.Duration, ok bool) {
	fctx, stop := context.WithCancel(ctx)
	fdone := make(chan struct{})
	go func() {
		defer close(fdone)
		_ = f.Run(fctx)
	}()
	defer func() {
		stop()
		<-fdone
	}()

	every := h.cfg.Lease.Period()
	budget := time.Duration(h.cfg.MissBudget) * every
	tick := time.NewTicker(every)
	defer tick.Stop()
	seen, misses := false, 0
	for {
		select {
		case <-ctx.Done():
			return last, 0, false
		case <-h.force:
			return last, 0, true
		case <-tick.C:
			if st, err := h.cfg.Lease.Read(); err == nil {
				last, seen, misses = st, true, 0
			} else if seen {
				misses++
			}
			leaderless = time.Since(last.RenewedAt)
			if seen && (misses > h.cfg.MissBudget || misses == 0 && leaderless > budget) {
				return last, leaderless, true
			}
		}
	}
}

// Store returns the replicated journal copy.
func (h *WarmStandby[S]) Store() *replica.Store { return h.cfg.Follower.Store }

// Promote forces an immediate takeover regardless of lease state.
func (h *WarmStandby[S]) Promote() {
	select {
	case h.force <- struct{}{}:
	default:
	}
}

// Await blocks until the standby has promoted a daemon and hands it over —
// the caller stops it from then on — or returns boot's error, or gives up
// after timeout.
func (h *WarmStandby[S]) Await(timeout time.Duration) (srv S, err error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case srv = <-h.srvCh:
		return srv, nil
	case err = <-h.errCh:
		return srv, fmt.Errorf("standby promotion failed: %w", err)
	case <-timer.C:
		return srv, fmt.Errorf("no takeover within %v", timeout)
	}
}

// Stop cancels the watcher and waits it out. A daemon that was promoted
// but never collected through Await is stopped and returned.
func (h *WarmStandby[S]) Stop() (promoted S, ok bool) {
	h.cancel()
	<-h.done
	select {
	case promoted = <-h.srvCh:
		promoted.Stop()
		return promoted, true
	default:
		return promoted, false
	}
}
