package cluster

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/units"
)

func mkCluster(t *testing.T, n, priv int) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: n, Model: power.TianheNode(), Privileged: priv})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Model: power.TianheNode()}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(Config{Nodes: 4, Model: power.TianheNode(), Privileged: 5}); err == nil {
		t.Error("privileged > nodes accepted")
	}
	if _, err := New(Config{Nodes: 4, Model: power.TianheNode(), Privileged: -1}); err == nil {
		t.Error("negative privileged accepted")
	}
	if _, err := New(Config{Nodes: 4}); err == nil {
		t.Error("zero model accepted")
	}
}

func TestTianhe128(t *testing.T) {
	c, err := Tianhe128(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 128 {
		t.Errorf("size = %d", c.Size())
	}
	if len(c.Candidates()) != 128 {
		t.Errorf("candidates = %d, want all 128", len(c.Candidates()))
	}
	// P_thy for the testbed should land near 47 kW.
	if p := c.TheoreticalPeak(); p < units.KW(43) || p > units.KW(52) {
		t.Errorf("P_thy = %v, outside plausible band", p)
	}
	if c.FloorPower() >= c.TheoreticalPeak() {
		t.Error("floor power not below theoretical peak")
	}
}

func TestPrivilegedSpread(t *testing.T) {
	c := mkCluster(t, 8, 2)
	if got := len(c.Candidates()); got != 6 {
		t.Fatalf("candidates = %d, want 6", got)
	}
	// Privileged nodes are spread, not clustered at the front.
	if !c.Node(0).Controllable() == false && !c.Node(1).Controllable() == false {
		t.Log("spread check: first two both privileged would indicate clustering")
	}
	priv := []node.ID{}
	for _, n := range c.Nodes() {
		if !n.Controllable() {
			priv = append(priv, n.ID())
		}
	}
	if len(priv) != 2 {
		t.Fatalf("privileged = %v", priv)
	}
	if priv[1]-priv[0] < 2 {
		t.Errorf("privileged nodes adjacent: %v", priv)
	}
}

func TestNodeLookup(t *testing.T) {
	c := mkCluster(t, 4, 0)
	if c.Node(2) == nil || c.Node(2).ID() != 2 {
		t.Error("lookup failed")
	}
	if c.Node(99) != nil {
		t.Error("phantom node")
	}
}

func TestSetCandidateCount(t *testing.T) {
	c := mkCluster(t, 128, 0)
	for _, k := range []int{0, 16, 48, 128} {
		if err := c.SetCandidateCount(k); err != nil {
			t.Fatal(err)
		}
		if got := len(c.Candidates()); got != k {
			t.Errorf("candidates = %d, want %d", got, k)
		}
	}
	if err := c.SetCandidateCount(129); err == nil {
		t.Error("oversized candidate count accepted")
	}
	if err := c.SetCandidateCount(-1); err == nil {
		t.Error("negative candidate count accepted")
	}
}

func TestSetCandidateCountRestoresLeavers(t *testing.T) {
	c := mkCluster(t, 8, 0)
	// Degrade everyone, then shrink the candidate set: leavers must be
	// restored to full performance since the manager can no longer
	// actuate them.
	for _, n := range c.Nodes() {
		if err := n.SetLevel(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetCandidateCount(2); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if !n.Controllable() && !n.AtHighest() {
			t.Errorf("node %d left candidate set at level %d", n.ID(), n.Level())
		}
		if n.Controllable() && !n.AtLowest() {
			t.Errorf("node %d should have kept its degraded level", n.ID())
		}
	}
}

func TestCandidateIDsEvenlySpread(t *testing.T) {
	c := mkCluster(t, 128, 0)
	if err := c.SetCandidateCount(4); err != nil {
		t.Fatal(err)
	}
	var ids []node.ID
	for _, n := range c.Candidates() {
		ids = append(ids, n.ID())
	}
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	// Gaps should be roughly 32 apart.
	for i := 1; i < len(ids); i++ {
		gap := int(ids[i] - ids[i-1])
		if gap < 16 || gap > 48 {
			t.Errorf("uneven spread: %v", ids)
		}
	}
}

func TestTruePowerSumsNodes(t *testing.T) {
	c := mkCluster(t, 4, 0)
	var want units.Watts
	for _, n := range c.Nodes() {
		want += n.TruePower()
	}
	if got := c.TruePower(); got != want {
		t.Errorf("TruePower = %v, want %v", got, want)
	}
	// Loading a node raises system power.
	before := c.TruePower()
	c.Node(0).SetLoad(node.Load{CPUUtil: 1})
	if c.TruePower() <= before {
		t.Error("loading a node did not raise system power")
	}
}

func TestTickAdvancesCounters(t *testing.T) {
	c := mkCluster(t, 2, 0)
	c.Node(0).SetLoad(node.Load{CPUUtil: 0.5})
	before := c.Node(0).Snapshot(0)
	c.Tick(time.Second)
	after := c.Node(0).Snapshot(time.Second)
	if after.CPU.Total() <= before.CPU.Total() {
		t.Error("tick did not advance node counters")
	}
}

// TestCheckControllability: the floored worst case is what §II.D's
// Controllability assumption compares against the provision.
func TestCheckControllability(t *testing.T) {
	c := mkCluster(t, 8, 0)
	// All candidates floored at full load ≈ 8 × 208 W ≈ 1.7 kW.
	w := c.FlooredWorstCase()
	if w > units.KW(2) {
		t.Errorf("floored worst case %v: a 2 kW provision should satisfy controllability", w)
	}
	if w <= units.KW(1) {
		t.Errorf("floored worst case %v: a 1 kW provision should violate controllability", w)
	}
	// Privileged nodes count at their full peak.
	cp := mkCluster(t, 8, 8)
	if w := cp.FlooredWorstCase(); w <= units.KW(2) {
		t.Errorf("floored worst case %v: an all-privileged cluster cannot be controlled to 2 kW", w)
	}
}

func TestSpreadHelper(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{10, 0, 0}, {10, 10, 10}, {10, 3, 3}, {128, 48, 48}, {5, 1, 1},
	} {
		got := 0
		for _, b := range spread(tc.n, tc.k) {
			if b {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("spread(%d,%d) marked %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}
