package daemon_test

import (
	"context"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/fedd"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
	"repro/internal/wire"
)

// countingParent is a coordinator that only counts: every accepted
// connection's first frame is a subscribe, every later one a report.
type countingParent struct {
	nw         *faultnet.Network
	subscribes atomic.Int64
	reports    atomic.Int64
	closed     atomic.Int64 // sessions that have ended
}

func startCountingParent(t *testing.T) *countingParent {
	t.Helper()
	p := &countingParent{nw: faultnet.New(7)}
	ln := p.nw.Listener()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := wire.NewConn(raw)
				defer conn.Close()
				defer p.closed.Add(1)
				for n := 0; ; n++ {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					if env.Type != wire.KindCabReport {
						continue
					}
					if n == 0 {
						p.subscribes.Add(1)
					} else {
						p.reports.Add(1)
					}
				}
			}()
		}
	}()
	t.Cleanup(p.nw.Close)
	return p
}

func (p *countingParent) dial() (net.Conn, error) { return p.nw.Dial(context.Background(), 0) }

// A deposed daemon must fall silent upward: it may neither keep reporting
// on its parent session nor redial it, or it and its successor fight over
// one child slot at the parent. Both daemon kinds run their governor on
// the chassis's Leading signal; this drives each into deposition through
// the lease file and listens at the parent.
func TestDeposedDaemonStopsTalkingUpward(t *testing.T) {
	const (
		reportEvery = 10 * time.Millisecond
		leaseEvery  = 10 * time.Millisecond
	)
	type governed interface {
		Start() error
		Stop()
		Deposed() bool
		Epoch() uint64
	}
	for _, tc := range []struct {
		name string
		boot func(t *testing.T, ln net.Listener, p *countingParent, lease *replica.Lease) (d governed, cycles func() int)
	}{
		{"managerd", func(t *testing.T, ln net.Listener, p *countingParent, lease *replica.Lease) (governed, func() int) {
			srv, err := managerd.New(managerd.Config{
				Listener:        ln,
				Model:           power.TianheNode(),
				Policy:          policy.MPCC{},
				Tg:              3,
				ControlEvery:    5 * time.Millisecond,
				Thresholds:      power.Thresholds{PL: 1e6, PH: 2e6},
				CoordinatorDial: p.dial,
				ReportEvery:     reportEvery,
				HA:              daemon.HA{Lease: lease, LeaseHolder: "primary"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv, func() int { return srv.Status().Cycles }
		}},
		{"fedd-row", func(t *testing.T, ln net.Listener, p *countingParent, lease *replica.Lease) (governed, func() int) {
			srv, err := fedd.New(fedd.Config{
				Listener:     ln,
				Budget:       1e6,
				PH:           1.1e6,
				Division:     budget.Proportional,
				ControlEvery: 5 * time.Millisecond,
				ParentDial:   p.dial,
				ReportEvery:  reportEvery,
				HA:           daemon.HA{Lease: lease, LeaseHolder: "primary"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return srv, func() int { return srv.Status().Cycles }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startCountingParent(t)
			lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "lease.json"), Every: leaseEvery}
			own := faultnet.New(1)
			t.Cleanup(own.Close)
			d, cycles := tc.boot(t, own.Listener(), p, lease)
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Stop)
			waitFor(t, "subscribed and reporting", func() bool {
				return p.subscribes.Load() == 1 && p.reports.Load() >= 2 && cycles() >= 2
			})

			// A successor claims the lease — again if a renewal that had
			// already read the file overwrote the claim.
			waitFor(t, "self-deposition", func() bool {
				if d.Deposed() {
					return true
				}
				claim := replica.LeaseState{Epoch: d.Epoch() + 1, Holder: "standby", RenewedAt: time.Now()}
				if err := lease.Write(claim); err != nil {
					t.Error(err)
				}
				return false
			})
			waitFor(t, "the upward session to be dropped", func() bool { return p.closed.Load() == 1 })

			subs, reps, cyc := p.subscribes.Load(), p.reports.Load(), cycles()
			time.Sleep(5 * reportEvery)
			if got := p.subscribes.Load(); got != subs {
				t.Errorf("deposed daemon resubscribed at its parent (%d → %d subscribes)", subs, got)
			}
			if got := p.reports.Load(); got != reps {
				t.Errorf("deposed daemon kept reporting (%d → %d reports)", reps, got)
			}
			// One cycle may have been in flight when leadership ended.
			if got := cycles(); got > cyc+1 {
				t.Errorf("deposed daemon kept cycling (%d → %d cycles)", cyc, got)
			}
		})
	}
}
