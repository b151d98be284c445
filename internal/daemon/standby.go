package daemon

import (
	"context"
	"fmt"
	"time"

	"repro/internal/replica"
)

// WarmStandby is a replica.Standby together with the daemon it boots when
// it takes over — the one promotion path behind powmgrd and powcoordd
// -standby-of, powbench's failover scenario and the harness standbys.
type WarmStandby[S interface{ Stop() }] struct {
	// Standby is the journal follower and lease watcher; its Obs registry
	// carries the follower and takeover instruments, its Store is the
	// journal copy the promoted daemon adopts.
	Standby *replica.Standby

	cancel context.CancelFunc
	done   chan struct{} // the watcher has returned
	srvCh  chan S        // the promoted daemon, until Await collects it
	errCh  chan error    // boot's error
}

// StartStandby starts replicating and watching the lease. On leader death
// (or Promote) boot is called once, with the replicated store stamped at
// the claimed epoch, to build and start the replacement daemon.
// cfg.OnPromote is owned by the helper.
func StartStandby[S interface{ Stop() }](cfg replica.StandbyConfig, boot func(replica.Promotion) (S, error)) (*WarmStandby[S], error) {
	h := &WarmStandby[S]{
		done:  make(chan struct{}),
		srvCh: make(chan S, 1),
		errCh: make(chan error, 1),
	}
	cfg.OnPromote = func(p replica.Promotion) error {
		srv, err := boot(p)
		if err == nil {
			h.srvCh <- srv
		}
		return err
	}
	sb, err := replica.NewStandby(cfg)
	if err != nil {
		return nil, err
	}
	h.Standby = sb
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go func() {
		defer close(h.done)
		if err := sb.Run(ctx); err != nil {
			h.errCh <- err
		}
	}()
	return h, nil
}

// Promote forces an immediate takeover regardless of lease state.
func (h *WarmStandby[S]) Promote() { h.Standby.Promote() }

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
