package harness

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/faultnet"
	"repro/internal/managerd"
	"repro/internal/replica"
)

// Warm-standby support: StartStandby runs a daemon.WarmStandby inside the
// cluster — its follower replicates the primary's journal over the same
// fault network the agents use, and its lease watcher promotes a
// replacement manager when the primary dies. The promoted manager binds a
// fresh faultnet listener, so every agent redial parked by the primary's
// death is accepted by the new leader.

// standbyKeyBase offsets the standby followers' faultnet dial keys far
// above any agent index so fault profiles and link bookkeeping never
// collide with the fleet's.
const standbyKeyBase uint64 = 1 << 30

// StandbyHandle tracks one warm standby started with StartStandby; its
// Store is the journal copy the promoted manager adopts.
type StandbyHandle = daemon.WarmStandby[*managerd.Server]

// startStandby is what the manager and coordinator standbys share: a
// memory journal copy, a follower dialling nw under the idx-th standby key,
// and the promotion helper around boot.
func startStandby[S interface{ Stop() }](t testing.TB, nw *faultnet.Network, idx int, lease *replica.Lease, missBudget int, holder string, boot func(daemon.HA) (S, error)) *daemon.WarmStandby[S] {
	t.Helper()
	key := standbyKeyBase + uint64(idx)
	h, err := daemon.StartStandby(daemon.StandbyConfig{
		Follower: replica.FollowerConfig{
			Backoff: 10 * time.Millisecond,
			Dial: func(dctx context.Context) (net.Conn, error) {
				return nw.Dial(dctx, key)
			},
		},
		Lease:      lease,
		MissBudget: missBudget,
		Holder:     holder,
	}, boot)
	if err != nil {
		t.Fatalf("harness: %s: %v", holder, err)
	}
	return h
}

// StartStandby boots a warm standby: a journal follower over the fault
// network plus a lease watcher that, on leader death (or Promote), starts a
// replacement manager over the replicated store, which claims the next
// epoch. The replacement runs the cluster's Options as they stand now, so a
// test may give each standby its own (a RecordCycle sink, say). Requires
// Options.LeasePath. missBudget ≤ 0 takes daemon.DefaultMissBudget. The
// cluster owns the standby; Stop tears it down.
func (c *Cluster) StartStandby(missBudget int) *StandbyHandle {
	t := c.tb()
	t.Helper()
	if c.Opt.LeasePath == "" {
		t.Fatal("harness: StartStandby needs Options.LeasePath")
	}
	holder := fmt.Sprintf("standby-%d", len(c.standbys)+1)
	lease := &replica.Lease{Path: c.Opt.LeasePath, Every: c.Opt.LeaseEvery}
	opt := c.Opt
	h := startStandby(t, c.Net, len(c.standbys), lease, missBudget, holder, func(ha daemon.HA) (*managerd.Server, error) {
		cfg := opt.serverConfig(c.Net.Listener())
		cfg.HA = ha
		return daemon.Boot(managerd.New(cfg))
	})
	c.standbys = append(c.standbys, h)
	return h
}

// AwaitTakeover blocks until h has promoted a replacement manager (or
// fails the test after timeout), rebinds Cluster.Server to it so Status,
// AwaitAgents and friends speak to the new leader, and returns it. The
// old Server is left to the test (StopManager usually killed it already).
func (c *Cluster) AwaitTakeover(h *StandbyHandle, timeout time.Duration) *managerd.Server {
	t := c.tb()
	t.Helper()
	srv, err := h.Await(timeout)
	if err != nil {
		t.Fatalf("harness: %v (standby lease %s)", err, c.Opt.LeasePath)
	}
	c.Server = srv
	return srv
}
