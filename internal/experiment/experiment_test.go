package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// smallD is a reduced class-D scale that preserves the paper's regime
// (big spiky jobs, occasional throttling) while keeping tests fast.
func smallD() Scale {
	return Scale{Class: workload.ClassD, Training: 90 * time.Minute, Eval: 4 * time.Hour, Seeds: []uint64{1}}
}

func TestScalePresets(t *testing.T) {
	for _, sc := range []Scale{Fast(), Paper(), Quick()} {
		if sc.Eval <= 0 || sc.Training < 0 || len(sc.Seeds) == 0 {
			t.Errorf("bad preset %+v", sc)
		}
	}
	if Paper().Training != 24*time.Hour || Paper().Eval != 12*time.Hour {
		t.Error("Paper() must match §V.C (24 h training, 12 h evaluation)")
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rs, err := Figure7(smallD())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	byName := map[string]PolicyResult{}
	for _, r := range rs {
		byName[r.Policy] = r
	}
	none, mpc, hri := byName["none"], byName["mpc"], byName["hri"]

	// Paper: uncapped baseline is lossless.
	if none.Performance < 0.999 {
		t.Errorf("uncapped perf = %v", none.Performance)
	}
	// Paper: ≈2% performance loss under either policy.
	for _, r := range []PolicyResult{mpc, hri} {
		if r.Performance < 0.95 || r.Performance > 1.0 {
			t.Errorf("%s perf = %v, want ≈0.98", r.Policy, r.Performance)
		}
	}
	// Paper: maximal power reduced (≈10% on the testbed).
	for _, r := range []PolicyResult{mpc, hri} {
		if r.PMaxReduction < 0.03 {
			t.Errorf("%s peak cut = %v, want a clear reduction", r.Policy, r.PMaxReduction)
		}
	}
	// Paper: ΔP×T cut substantially (73% MPC, 66% HRI); require > 50%.
	for _, r := range []PolicyResult{mpc, hri} {
		if r.OverspendReduction < 0.5 {
			t.Errorf("%s ΔP×T cut = %v, want > 50%%", r.Policy, r.OverspendReduction)
		}
	}
	// Paper: MPC ahead of (or equal to) HRI on ΔP×T and CPLJ.
	if mpc.Overspend > hri.Overspend*1.1 {
		t.Errorf("MPC ΔP×T %v clearly worse than HRI %v", mpc.Overspend, hri.Overspend)
	}
	if mpc.CPLJFrac < hri.CPLJFrac {
		t.Errorf("CPLJ: MPC %v below HRI %v, paper has MPC ahead", mpc.CPLJFrac, hri.CPLJFrac)
	}
	// Paper: the red state is never entered under capping.
	for _, r := range []PolicyResult{mpc, hri} {
		if r.RedEntries != 0 {
			t.Errorf("%s entered red %d times, paper: never", r.Policy, r.RedEntries)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	pts, err := Figure6(smallD(), []int{0, 32, 128}, []string{"mpc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Normalisation: k=0 is exactly 1.0.
	if pts[0].K != 0 || pts[0].OverspendNorm != 1 || pts[0].PMaxNorm != 1 {
		t.Errorf("baseline point = %+v", pts[0])
	}
	// Paper: more candidates → smaller ΔP×T.
	if !(pts[2].OverspendNorm < pts[1].OverspendNorm && pts[1].OverspendNorm < 1) {
		t.Errorf("ΔP×T not improving with candidate size: %v, %v, %v",
			pts[0].OverspendNorm, pts[1].OverspendNorm, pts[2].OverspendNorm)
	}
	// Peak also improves with a full candidate set.
	if pts[2].PMaxNorm >= 1 {
		t.Errorf("full candidate set did not cut the peak: %v", pts[2].PMaxNorm)
	}
}

func TestFigure5Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon measurement")
	}
	cfg := Figure5Config{
		Sizes:        []int{0, 16, 64},
		PerSize:      1500 * time.Millisecond,
		ControlEvery: 50 * time.Millisecond,
	}
	pts, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Cycles == 0 {
			t.Fatalf("no cycles ran for n=%d", p.Agents)
		}
		if p.CPUUtil < 0 || p.CPUUtil > 1 {
			t.Errorf("n=%d utilisation %v out of range", p.Agents, p.CPUUtil)
		}
	}
	// Paper: cost rises with the number of monitored nodes. Timing noise
	// exists, so require the ends of the curve to order strictly.
	if pts[2].CPUUtil <= pts[0].CPUUtil {
		t.Errorf("manager cost not rising: %v → %v", pts[0].CPUUtil, pts[2].CPUUtil)
	}
}

func TestThresholdsRule(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rs, err := Thresholds(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.PHOverPeak < 0.90 || r.PHOverPeak > 0.94 {
			t.Errorf("seed %d: PH/peak = %v, want ≈0.93", r.Seed, r.PHOverPeak)
		}
		if r.PLOverPeak < 0.81 || r.PLOverPeak > 0.85 {
			t.Errorf("seed %d: PL/peak = %v, want ≈0.84", r.Seed, r.PLOverPeak)
		}
	}
}

func TestFaultsGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := Quick()
	pts, err := Faults(sc, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Capping must still reduce overspend even with 30% sample loss —
	// and must not destroy performance by orphaning degraded nodes
	// (a lost sample once caused exactly that).
	for _, p := range pts {
		if p.OverspendReduction < 0.2 {
			t.Errorf("drop=%v: ΔP×T cut %v, capping collapsed under faults", p.DropRate, p.OverspendReduction)
		}
		if p.Performance < 0.93 {
			t.Errorf("drop=%v: perf %v, degraded nodes orphaned", p.DropRate, p.Performance)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := Quick()
	tg, err := AblationTg(sc, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tg) != 2 {
		t.Error("Tg sweep size")
	}
	pd, err := AblationPeriod(sc, []time.Duration{time.Second, 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd) != 2 {
		t.Error("period sweep size")
	}
	mg, err := AblationMargins(sc, [][2]float64{{0.16, 0.07}})
	if err != nil {
		t.Fatal(err)
	}
	if len(mg) != 1 {
		t.Error("margin sweep size")
	}
	// Render all ablation tables to exercise the formatting path.
	var buf bytes.Buffer
	for _, tab := range []*Table{AblationTgTable(tg), AblationPeriodTable(pd), AblationMarginsTable(mg)} {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("tables rendered empty")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "long-header", "c"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", "1", "22")
	tab.AddRow("yyyy", "2", "3")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "T" || !strings.HasPrefix(lines[1], "=") {
		t.Errorf("title rendering: %q", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("notes missing")
	}
	// Column alignment: header and rows share the first column width.
	if !strings.Contains(out, "yyyy  2") {
		t.Errorf("alignment broken:\n%s", out)
	}
}

// TestComparePoliciesNeedsSeeds holds every study, not only
// ComparePolicies, to refusing a scale with no seeds rather than averaging
// over none.
func TestComparePoliciesNeedsSeeds(t *testing.T) {
	sc := Quick()
	sc.Seeds = nil
	studies := map[string]func() error{
		"ComparePolicies": func() error { _, err := ComparePolicies(sc, []string{"none"}); return err },
		"Figure7":         func() error { _, err := Figure7(sc); return err },
		"PolicyFamily":    func() error { _, err := PolicyFamily(sc); return err },
		"Figure6":         func() error { _, err := Figure6(sc, nil, nil); return err },
		"Faults":          func() error { _, err := Faults(sc, []float64{0}); return err },
		"Thresholds":      func() error { _, err := Thresholds(sc); return err },
		"AblationTg":      func() error { _, err := AblationTg(sc, nil); return err },
		"AblationPeriod":  func() error { _, err := AblationPeriod(sc, nil); return err },
		"AblationMargins": func() error { _, err := AblationMargins(sc, nil); return err },
		"PrivilegedJobs":  func() error { _, err := PrivilegedJobs(sc, nil); return err },
		"HeteroStudy":     func() error { _, err := HeteroStudy(sc); return err },
		"CabinetStudy":    func() error { _, err := CabinetStudy(sc); return err },
		"ControllerStudy": func() error { _, err := ControllerStudy(sc); return err },
		"ThermalStudy":    func() error { _, err := ThermalStudy(sc, nil); return err },
		"FairnessStudy":   func() error { _, err := FairnessStudy(sc, nil); return err },
		"BackendEquivalence": func() error {
			_, err := BackendEquivalence(sc, "mpc", nil)
			return err
		},
	}
	for name, study := range studies {
		t.Run(name, func(t *testing.T) {
			if study() == nil {
				t.Error("empty seed list accepted")
			}
		})
	}
}

func TestFigure5ConfigValidation(t *testing.T) {
	if _, err := Figure5(Figure5Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPolicyTableRendering(t *testing.T) {
	rs := []PolicyResult{{Policy: "mpc", Performance: 0.98, CPLJFrac: 0.7}}
	var buf bytes.Buffer
	if err := PolicyTable("Figure 7", rs).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mpc") {
		t.Error("policy row missing")
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tab := &Table{
		Title:  "My Table",
		Header: []string{"a", "b"},
		Notes:  []string{"hello"},
	}
	tab.AddRow("x|y", "2")
	var buf bytes.Buffer
	if err := tab.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### My Table", "| a | b |", "| --- | --- |", `x\|y`, "*hello*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
