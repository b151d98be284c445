package fedd_test

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/daemon"
	"repro/internal/fedd"
	"repro/internal/harness"
	"repro/internal/managerd"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
)

// TestCabinetFollowsPromotedCoordinatorOverTCP is the coordinator takeover
// over real sockets, where a dial reaches only the address it names: a
// leased primary coordinator, a warm standby that binds its own port when
// it promotes, and a governed cabinet given both addresses. Killing the
// primary, the cabinet must rotate to the promoted standby and adopt its
// grant before its budget grace runs out, with no floor on the way.
func TestCabinetFollowsPromotedCoordinatorOverTCP(t *testing.T) {
	const (
		period = 50 * time.Millisecond
		grace  = 40 // control periods: a 2 s window
	)
	lease := &replica.Lease{Path: filepath.Join(t.TempDir(), "coord-lease.json"), Every: 15 * time.Millisecond}
	coordinator := func(addr string, ha daemon.HA) (*fedd.Server, error) {
		return daemon.Boot(fedd.New(fedd.Config{
			Addr: addr, Budget: 1000, PH: 1100, Division: budget.Proportional,
			ControlEvery: period, StaleAfter: 2 * time.Second, HA: ha,
		}))
	}
	primary, err := coordinator("127.0.0.1:0", daemon.HA{Lease: lease, LeaseHolder: "primary"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	standbyAddr := ln.Addr().String()
	ln.Close()
	sb, err := daemon.StartStandby(daemon.StandbyConfig{
		Follower: replica.FollowerConfig{Addrs: []string{primary.Addr()}, Backoff: lease.Every},
		Lease:    lease,
		Holder:   "standby",
	}, func(ha daemon.HA) (*fedd.Server, error) { return coordinator(standbyAddr, ha) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Stop() })

	cab, err := daemon.Boot(managerd.New(managerd.Config{
		Addr: "127.0.0.1:0", Model: power.TianheNode(), Policy: policy.MPCC{}, Tg: 3,
		ControlEvery: period, Thresholds: power.Thresholds{PL: 500, PH: 550},
		CoordinatorAddrs: []string{primary.Addr(), standbyAddr},
		BudgetGrace:      grace, FailsafeBudget: power.Thresholds{PL: 100, PH: 120},
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cab.Stop)
	counter := func(name string) float64 {
		v, _ := cab.Obs().Value(name)
		return v
	}
	harness.WaitUntil(t, 10*time.Second, func() bool {
		st := primary.Status()
		return counter("budget_grants") > 0 && st.ReplicaConns == 1
	}, "cabinet never governed, or the standby never followed")

	primary.Stop()
	killed := time.Now()
	// The newest seq the dead primary sent: every grant of its successor
	// must be numbered above it, or a child's echo of an old grant would
	// read as the adoption of a new one.
	var last uint64
	if cs := primary.CabinetStates(); len(cs) == 1 {
		last = cs[0].GrantSeq
	}
	if last == 0 {
		t.Fatal("the primary recorded no grant sent to the cabinet")
	}
	promoted, err := sb.Await(grace * period)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(promoted.Stop)
	leaderless := time.Since(killed)
	// Every grant counted from here is the new leader's: it grants first at
	// its first cycle, a period after it starts, and the cabinet read what
	// the dead primary had sent long before.
	pre := counter("budget_grants")
	if promoted.Addr() != standbyAddr || promoted.Epoch() != 2 {
		t.Fatalf("promoted coordinator at %s epoch %d, want %s epoch 2", promoted.Addr(), promoted.Epoch(), standbyAddr)
	}
	deadline := killed.Add(grace * period)
	for counter("budget_grants") <= pre {
		if time.Now().After(deadline) {
			t.Fatalf("no grant from the promoted coordinator within the %v grace", grace*period)
		}
		time.Sleep(time.Millisecond)
	}
	adopted := time.Since(killed)
	// With one child a grantor's seq rises at most once per cycle, so its
	// newest seq less its cycle count bounds its first seq from below. The
	// seq is read before the count, which only grows.
	var newest uint64
	if cs := promoted.CabinetStates(); len(cs) == 1 {
		newest = cs[0].GrantSeq
	}
	cycles, _ := promoted.Obs().Value("cycles")
	if newest+1 <= last+uint64(cycles) {
		t.Errorf("the promoted coordinator reused grant seqs: newest %d after %v cycles, the primary's last was %d", newest, cycles, last)
	}
	// The governor redials on its wire.Backoff steps, 10, 30, 70, 150 ms …
	// after the primary's death, alternating the two addresses; the new
	// leader grants at its first cycle, one period after it starts.
	t.Logf("death → first adopted grant %v: leaderless %v, then %v for the governor's next dial and the first grant cycle",
		adopted.Round(time.Millisecond), leaderless.Round(time.Millisecond), (adopted - leaderless).Round(time.Millisecond))
	if v := counter("budget_floors"); v != 0 {
		t.Errorf("cabinet floored across the takeover: budget_floors = %v", v)
	}
	if v := counter("governed"); v != 1 {
		t.Errorf("cabinet not governed after the takeover: governed = %v", v)
	}
}
