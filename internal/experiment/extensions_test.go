package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestThermalStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := ThermalStudy(Quick(), []string{"none", "mpc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	none, mpc := pts[0], pts[1]
	// §I.A: capping must reduce peak temperature, expected failures and
	// cooling energy.
	if mpc.PeakC >= none.PeakC {
		t.Errorf("capped peak %.1f °C not below uncapped %.1f °C", mpc.PeakC, none.PeakC)
	}
	if mpc.FailureMultiplier >= none.FailureMultiplier {
		t.Errorf("capped failure multiplier %.3f not below uncapped %.3f",
			mpc.FailureMultiplier, none.FailureMultiplier)
	}
	if mpc.CoolingEnergy >= none.CoolingEnergy {
		t.Errorf("capped cooling %.1f kWh not below uncapped %.1f kWh",
			mpc.CoolingEnergy.KWh(), none.CoolingEnergy.KWh())
	}
	// Temperatures must be physically plausible for this fleet.
	for _, p := range pts {
		if p.PeakC < 30 || p.PeakC > 60 {
			t.Errorf("%s peak %.1f °C implausible", p.Policy, p.PeakC)
		}
	}
	var buf bytes.Buffer
	if err := ThermalTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Thermal study") {
		t.Error("table rendering")
	}
}

// TestThermalStudyAveragesEverySeed checks that each thermal field is the
// arithmetic mean over the scale's seeds, each seed weighed alike.
func TestThermalStudyAveragesEverySeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := Quick()
	sc.Seeds = []uint64{1, 2, 3}
	got, err := ThermalStudy(sc, []string{"mpc"})
	if err != nil {
		t.Fatal(err)
	}
	var want ThermalPoint
	for _, seed := range sc.Seeds {
		one := sc
		one.Seeds = []uint64{seed}
		pts, err := ThermalStudy(one, []string{"mpc"})
		if err != nil {
			t.Fatal(err)
		}
		want.PeakC += pts[0].PeakC / 3
		want.MeanFinalC += pts[0].MeanFinalC / 3
		want.FailureMultiplier += pts[0].FailureMultiplier / 3
		want.CoolingEnergy += pts[0].CoolingEnergy / 3
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	g := got[0]
	if !near(g.PeakC, want.PeakC) || !near(g.MeanFinalC, want.MeanFinalC) ||
		!near(g.FailureMultiplier, want.FailureMultiplier) ||
		!near(float64(g.CoolingEnergy), float64(want.CoolingEnergy)) {
		t.Errorf("3-seed study %+v, want the mean of its single-seed runs %+v", g, want)
	}
}

func TestControllerStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := ControllerStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	byName := map[string]ControllerPoint{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	alg1 := byName["algorithm1+mpc"]
	fb := byName["feedback-pi"]
	tl := byName["twolevel-uniform"]
	// All controllers must actually control.
	if alg1.Moves == 0 || fb.Moves == 0 || tl.Moves == 0 {
		t.Fatalf("inert controller: alg1=%v fb=%v twolevel=%v", alg1.Moves, fb.Moves, tl.Moves)
	}
	// The two-level baseline must also cut overspend (it enforces hard
	// local budgets).
	if tl.OverspendReduction <= 0 {
		t.Errorf("two-level cut = %v", tl.OverspendReduction)
	}
	// The paper's architecture must beat the indiscriminate baseline on
	// overspend control (its central claim).
	if alg1.OverspendReduction <= fb.OverspendReduction {
		t.Errorf("Algorithm 1 ΔP×T cut %.2f not above feedback %.2f",
			alg1.OverspendReduction, fb.OverspendReduction)
	}
	// No controller may destroy performance outright.
	for _, p := range []ControllerPoint{alg1, fb} {
		if p.Performance < 0.95 {
			t.Errorf("%s perf = %v", p.Name, p.Performance)
		}
	}
	var buf bytes.Buffer
	if err := ControllerTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "feedback-pi") {
		t.Error("table rendering")
	}
}

func TestPrivilegedJobsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := PrivilegedJobs(Quick(), []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Pinning more work out of A_candidate must weaken capping.
	if pts[1].OverspendReduction >= pts[0].OverspendReduction {
		t.Errorf("capping did not weaken with privileged jobs: %.2f → %.2f",
			pts[0].OverspendReduction, pts[1].OverspendReduction)
	}
	// And performance must improve (privileged jobs never throttled).
	if pts[1].Performance < pts[0].Performance-0.002 {
		t.Errorf("perf fell with privileged jobs: %.4f → %.4f",
			pts[0].Performance, pts[1].Performance)
	}
	var buf bytes.Buffer
	if err := PrivilegedTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E5") {
		t.Error("table rendering")
	}
}

func TestCabinetStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := CabinetStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	byKey := map[string]CabinetPoint{}
	for _, p := range pts {
		byKey[p.Placement+"/"+p.Policy] = p
	}
	// Spread placement with capping must carry the lowest breaker-trip
	// exposure of all setups.
	best := byKey["spread/mpc"].TripRisk
	for k, p := range byKey {
		if k != "spread/mpc" && p.TripRisk < best-1e-9 {
			t.Errorf("%s trip risk %.3f below spread/mpc %.3f", k, p.TripRisk, best)
		}
	}
	// Sanity on reported quantities.
	for k, p := range byKey {
		if p.PeakImbalance < 1 {
			t.Errorf("%s imbalance %.3f < 1", k, p.PeakImbalance)
		}
		if p.HottestPeak <= 0 {
			t.Errorf("%s hottest peak %v", k, p.HottestPeak)
		}
	}
	var buf bytes.Buffer
	if err := CabinetTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E6") {
		t.Error("table rendering")
	}
}

func TestFairnessStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := FairnessStudy(Quick(), []string{"mpc", "hri"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	mpc, hri := pts[0], pts[1]
	// The paper's §IV claim: HRI spreads the pain more evenly than MPC.
	if hri.Jain <= mpc.Jain {
		t.Errorf("HRI Jain %.3f not above MPC %.3f — paper's fairness claim not reproduced",
			hri.Jain, mpc.Jain)
	}
	for _, p := range pts {
		if p.Jain <= 0 || p.Jain > 1 {
			t.Errorf("%s Jain %v out of range", p.Policy, p.Jain)
		}
		if len(p.PerBenchmark) == 0 {
			t.Errorf("%s missing per-benchmark breakdown", p.Policy)
		}
	}
	var buf bytes.Buffer
	if err := FairnessTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := BenchmarkTable("mpc", mpc.PerBenchmark).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fairness study") {
		t.Error("table rendering")
	}
}

func TestHeteroStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := HeteroStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// §III.B property 1: capping must work on the mixed fleet too —
	// comparable peak cut, substantial ΔP×T cut, acceptable performance,
	// and no red entries.
	for _, p := range pts {
		if p.PMaxReduction < 0.02 {
			t.Errorf("%s: peak cut %v", p.Fleet, p.PMaxReduction)
		}
		if p.OverspendReduction < 0.4 {
			t.Errorf("%s: ΔP×T cut %v", p.Fleet, p.OverspendReduction)
		}
		if p.Performance < 0.95 {
			t.Errorf("%s: perf %v", p.Fleet, p.Performance)
		}
		if p.RedEntries != 0 {
			t.Errorf("%s: red entered %d times", p.Fleet, p.RedEntries)
		}
	}
	var buf bytes.Buffer
	if err := HeteroTable(pts).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "E8") {
		t.Error("table rendering")
	}
}
