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

// Warm-standby support: StartStandby runs a replica.Standby inside the
// cluster — its follower replicates the primary's journal over the same
// fault network the agents use, and its lease watcher promotes a
// replacement manager when the primary dies. The promoted manager binds a
// fresh faultnet listener, so every agent redial parked by the primary's
// death is accepted by the new leader.

// standbyKeyBase offsets the standby followers' faultnet dial keys far
// above any agent index so fault profiles and link bookkeeping never
// collide with the fleet's.
const standbyKeyBase uint64 = 1 << 30

// StandbyHandle tracks one warm standby started with StartStandby. Its
// Standby field exposes the replica.Standby (its Obs registry carries the
// follower and takeover instruments; Store is the journal copy).
type StandbyHandle = daemon.WarmStandby[*managerd.Server]

// startStandby is what the manager and coordinator standbys share: a
// memory store, a follower dialling nw under the idx-th standby key, and
// the promotion helper around boot.
func startStandby[S interface{ Stop() }](t testing.TB, nw *faultnet.Network, idx int, lease *replica.Lease, missBudget int, holder string, boot func(replica.Promotion) (S, error)) *daemon.WarmStandby[S] {
	t.Helper()
	store, err := replica.Open("")
	if err != nil {
		t.Fatalf("harness: %s store: %v", holder, err)
	}
	key := standbyKeyBase + uint64(idx)
	h, err := daemon.StartStandby(replica.StandbyConfig{
		Follower: replica.FollowerConfig{
			Store:   store,
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
// network plus a lease watcher that, on leader death (or PromoteStandby),
// starts a replacement manager over the replicated store at a fenced-off
// higher epoch. Requires Options.LeasePath. missBudget ≤ 0 takes the
// replica default. The cluster owns the standby; Stop tears it down.
func (c *Cluster) StartStandby(missBudget int) *StandbyHandle {
	t := c.tb()
	t.Helper()
	if c.Opt.LeasePath == "" {
		t.Fatal("harness: StartStandby needs Options.LeasePath")
	}
	holder := fmt.Sprintf("standby-%d", len(c.standbys)+1)
	lease := &replica.Lease{Path: c.Opt.LeasePath, Every: c.Opt.LeaseEvery}
	h := startStandby(t, c.Net, len(c.standbys), lease, missBudget, holder, func(p replica.Promotion) (*managerd.Server, error) {
		cfg := c.Opt.serverConfig(c.Net.Listener())
		cfg.JournalEvery = 0
		cfg.HA = cfg.HA.Promoted(p, cfg.Lease, holder)
		return daemon.Boot(managerd.New(cfg))
	})
	c.standbys = append(c.standbys, h)
	return h
}

// PromoteStandby forces h to take over now, regardless of lease state —
// the controlled-failover half of the chaos matrix (the old primary, if
// alive, self-fences on the claimed lease or on the first agent hello
// reporting the new epoch).
func (c *Cluster) PromoteStandby(h *StandbyHandle) { h.Promote() }

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
