package power

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/procfs"
	"repro/internal/units"
)

func TestModelValidate(t *testing.T) {
	if err := TianheNode().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TianheNode()
	bad.CPU.Freqs = nil
	if err := bad.Validate(); err == nil {
		t.Error("invalid CPU accepted")
	}
}

func TestInstantIdleEqualsIdleCurve(t *testing.T) {
	m := TianheNode()
	for l := 0; l < m.Levels(); l++ {
		got := m.Instant(0, 0, 0, l)
		want := m.Idle.At(l, m.Levels())
		if got != want {
			t.Errorf("idle power at level %d = %v, want %v", l, got, want)
		}
	}
}

func TestInstantFullLoadTopLevel(t *testing.T) {
	m := TianheNode()
	top := m.Levels() - 1
	got := m.Instant(1, 1, 1, top)
	want := m.Idle.At(top, m.Levels()) + m.CPU.DynMax(top) + m.Mem.DynMax + m.NIC.DynMax
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("full load = %v, want %v", got, want)
	}
	// Tianhe-class node should land in the 300-400 W band.
	if got < 300 || got > 400 {
		t.Errorf("full-load node power %v outside plausible 300-400 W band", got)
	}
}

func TestInstantClampsFractions(t *testing.T) {
	m := TianheNode()
	if m.Instant(2, 2, 2, 9) != m.Instant(1, 1, 1, 9) {
		t.Error("fractions above 1 not clamped")
	}
	if m.Instant(-1, -1, -1, 0) != m.Instant(0, 0, 0, 0) {
		t.Error("negative fractions not clamped")
	}
}

func TestInstantMonotoneInLevel(t *testing.T) {
	m := TianheNode()
	for l := 1; l < m.Levels(); l++ {
		if m.Instant(0.8, 0.5, 0.3, l) <= m.Instant(0.8, 0.5, 0.3, l-1) {
			t.Errorf("power not increasing with level at %d", l)
		}
	}
}

func TestEstimateMatchesInstant(t *testing.T) {
	// An agent sampling a node running at a steady operating point must
	// reconstruct the same power the Instant form gives.
	m := TianheNode()
	tau := time.Second
	d := procfs.Delta{
		Interval: tau,
		CPUUtil:  0.75,
		MemUsed:  uint64(0.5 * float64(m.Mem.TotalBytes)),
		MemTotal: m.Mem.TotalBytes,
		NICBytes: uint64(0.25 * float64(m.NIC.Bandwidth) * tau.Seconds()),
	}
	got := m.Estimate(d, 9)
	want := m.Instant(0.75, 0.5, 0.25, 9)
	if !units.ApproxEqual(float64(got), float64(want), 0.001) {
		t.Errorf("Estimate = %v, Instant = %v", got, want)
	}
}

func TestEstimateZeroIntervalNoNaN(t *testing.T) {
	m := TianheNode()
	got := m.Estimate(procfs.Delta{Interval: 0, NICBytes: 100}, 5)
	if math.IsNaN(float64(got)) || math.IsInf(float64(got), 0) {
		t.Errorf("zero-interval estimate = %v", got)
	}
}

func TestEstimateZeroMemTotal(t *testing.T) {
	m := TianheNode()
	got := m.Estimate(procfs.Delta{Interval: time.Second, MemUsed: 100}, 5)
	if math.IsNaN(float64(got)) {
		t.Error("zero MemTotal produced NaN")
	}
}

func TestEstimateAtLevelPrediction(t *testing.T) {
	// MPC-C's P'(x): prediction at a lower level must be strictly less
	// than the estimate at the current level for a loaded node.
	m := TianheNode()
	d := procfs.Delta{Interval: time.Second, CPUUtil: 0.9,
		MemUsed: m.Mem.TotalBytes / 2, MemTotal: m.Mem.TotalBytes}
	cur := m.Estimate(d, 7)
	pred := m.Estimate(d, 6)
	if pred >= cur {
		t.Errorf("P'(x)=%v not below P(x)=%v", pred, cur)
	}
}

func TestMaxMinPower(t *testing.T) {
	m := TianheNode()
	if m.MaxPower() <= m.MinPower() {
		t.Error("MaxPower ≤ MinPower")
	}
	if m.MinPower() != m.Idle.At(0, m.Levels()) {
		t.Errorf("MinPower = %v", m.MinPower())
	}
}

func TestStateString(t *testing.T) {
	if Green.String() != "green" || Yellow.String() != "yellow" || Red.String() != "red" {
		t.Error("state names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state renders empty")
	}
}

func TestClassify(t *testing.T) {
	thr := Thresholds{PL: 84, PH: 93}
	cases := []struct {
		p    units.Watts
		want State
	}{
		{0, Green}, {83.9, Green},
		{84, Yellow}, {90, Yellow}, {92.9, Yellow},
		{93, Red}, {200, Red},
	}
	for _, c := range cases {
		if got := thr.Classify(c.p); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := (Thresholds{PL: 84, PH: 93}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Thresholds{PL: 93, PH: 84}).Validate(); err == nil {
		t.Error("PL > PH accepted")
	}
	if err := (Thresholds{PL: -1, PH: 5}).Validate(); err == nil {
		t.Error("negative PL accepted")
	}
}

func TestFromPeakPaperRule(t *testing.T) {
	thr := FromPeak(units.KW(44), DefaultMarginL, DefaultMarginH)
	if !units.ApproxEqual(float64(thr.PH), 0.93*44000, 1e-9) {
		t.Errorf("PH = %v, want 93%% of peak", thr.PH)
	}
	if !units.ApproxEqual(float64(thr.PL), 0.84*44000, 1e-9) {
		t.Errorf("PL = %v, want 84%% of peak", thr.PL)
	}
	if err := thr.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: Classify is consistent with Thresholds ordering for any valid
// thresholds and reading.
func TestClassifyConsistencyProperty(t *testing.T) {
	f := func(plRaw, spanRaw, pRaw uint16) bool {
		thr := Thresholds{
			PL: units.Watts(plRaw),
			PH: units.Watts(plRaw) + units.Watts(spanRaw),
		}
		p := units.Watts(pRaw)
		switch thr.Classify(p) {
		case Green:
			return p < thr.PL
		case Yellow:
			return p >= thr.PL && p < thr.PH
		case Red:
			return p >= thr.PH
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLearnerTrainingPhase(t *testing.T) {
	l, err := NewLearner(units.KW(40), time.Hour, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Before training completes, thresholds are derived from P_Max.
	init := l.Thresholds()
	if !units.ApproxEqual(float64(init.PH), 0.93*40000, 1e-9) {
		t.Errorf("initial PH = %v", init.PH)
	}
	thr := l.Observe(30*time.Minute, units.KW(44))
	if thr != init {
		t.Error("thresholds changed mid-training")
	}
	if l.Trained() {
		t.Error("trained too early")
	}
	// Training ends: peak 44 kW adopted.
	thr = l.Observe(time.Hour, units.KW(30))
	if !l.Trained() {
		t.Error("not trained after deadline")
	}
	if !units.ApproxEqual(float64(thr.PH), 0.93*44000, 1e-9) {
		t.Errorf("post-training PH = %v, want 93%% of 44 kW", thr.PH)
	}
}

func TestLearnerPeriodicAdjustment(t *testing.T) {
	l, _ := NewLearner(units.KW(40), time.Nanosecond, 10)
	l.Observe(time.Nanosecond, units.KW(30)) // completes training, adopts 30
	base := l.Thresholds()
	if !units.ApproxEqual(float64(base.PH), 0.93*30000, 1e-9) {
		t.Fatalf("post-training PH = %v", base.PH)
	}
	// Nine cycles with a higher peak observed: no adjustment yet.
	for i := 1; i <= 9; i++ {
		l.Observe(time.Duration(i)*time.Second, units.KW(36))
	}
	if l.Thresholds() != base {
		t.Error("adjusted before t_p cycles elapsed")
	}
	// Tenth cycle triggers adoption of the 36 kW lifetime peak.
	thr := l.Observe(10*time.Second, units.KW(20))
	if !units.ApproxEqual(float64(thr.PH), 0.93*36000, 1e-9) {
		t.Errorf("PH after adjustment = %v", thr.PH)
	}
}

func TestLearnerLifetimePeakNoDownwardSpiral(t *testing.T) {
	// Once capping suppresses the observable peak, periodic adjustment
	// must not ratchet the thresholds downwards cycle after cycle.
	l, _ := NewLearner(units.KW(40), time.Nanosecond, 2)
	l.Observe(time.Nanosecond, units.KW(44))
	want := l.Thresholds()
	for i := 1; i <= 20; i++ {
		l.Observe(time.Duration(i)*time.Second, units.KW(37))
	}
	if l.Thresholds() != want {
		t.Errorf("thresholds drifted to %+v under capped observations", l.Thresholds())
	}
}

func TestLearnerManualMode(t *testing.T) {
	// Zero training = administrator-set thresholds: fixed forever.
	l, _ := NewLearner(units.KW(40), 0, 2)
	if !l.Trained() {
		t.Error("manual-mode learner should report trained")
	}
	before := l.Thresholds()
	for i := 0; i < 10; i++ {
		l.Observe(time.Duration(i)*time.Second, units.KW(60))
	}
	if l.Thresholds() != before {
		t.Error("manual-mode thresholds moved")
	}
	if l.LifetimePeak() != units.KW(60) {
		t.Error("manual mode should still record the lifetime peak")
	}
}

func TestLearnerLifetimePeak(t *testing.T) {
	l, _ := NewLearner(units.KW(40), 0, 1000)
	l.Observe(0, units.KW(41))
	l.Observe(time.Second, units.KW(46))
	l.Observe(2*time.Second, units.KW(20))
	if got := l.LifetimePeak(); got != units.KW(46) {
		t.Errorf("lifetime peak = %v", got)
	}
}

func TestLearnerErrors(t *testing.T) {
	if _, err := NewLearner(0, time.Hour, 10); err == nil {
		t.Error("zero P_Max accepted")
	}
	if _, err := NewLearner(units.KW(1), time.Hour, 0); err == nil {
		t.Error("zero adjust period accepted")
	}
}

func TestLearnerSetMargins(t *testing.T) {
	l, _ := NewLearner(units.KW(40), 0, 1)
	if err := l.SetMargins(0.20, 0.10); err != nil {
		t.Fatal(err)
	}
	l.Observe(0, units.KW(40))
	thr := l.Observe(time.Second, units.KW(40))
	if !units.ApproxEqual(float64(thr.PH), 0.90*40000, 1e-9) {
		t.Errorf("custom-margin PH = %v", thr.PH)
	}
	if err := l.SetMargins(0.05, 0.10); err == nil {
		t.Error("marginL < marginH accepted (would invert PL/PH)")
	}
	if err := l.SetMargins(1.5, 0.1); err == nil {
		t.Error("marginL ≥ 1 accepted")
	}
}

type constSource units.Watts

func (c constSource) TruePower() units.Watts { return units.Watts(c) }

func TestMeterNoiseless(t *testing.T) {
	m := NewMeter(constSource(1000), 0, 0, nil)
	if got := m.Read(); got != 1000 {
		t.Errorf("noiseless read = %v", got)
	}
	if m.TrueLoad() != 1000 {
		t.Error("TrueLoad mismatch")
	}
}

func TestMeterOverhead(t *testing.T) {
	m := NewMeter(constSource(1000), 0.05, 0, nil)
	if got := m.Read(); math.Abs(float64(got)-1050) > 1e-9 {
		t.Errorf("overhead read = %v, want 1050", got)
	}
	// TrueLoad excludes overhead.
	if m.TrueLoad() != 1000 {
		t.Error("TrueLoad should exclude overhead")
	}
}

func TestMeterNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMeter(constSource(1000), 0, 0.01, rng)
	sum, sumsq := 0.0, 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := float64(m.Read())
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-1000) > 1 {
		t.Errorf("noisy meter mean = %v, want ≈1000", mean)
	}
	if sd < 5 || sd > 15 {
		t.Errorf("noisy meter σ = %v, want ≈10", sd)
	}
}

func TestMeterNegativeConfigClamped(t *testing.T) {
	m := NewMeter(constSource(100), -1, -1, nil)
	if got := m.Read(); got != 100 {
		t.Errorf("negative config not clamped: %v", got)
	}
}

func TestEstimateBreakdown(t *testing.T) {
	m := TianheNode()
	d := procfs.Delta{
		Interval: time.Second, CPUUtil: 0.8,
		MemUsed: m.Mem.TotalBytes / 2, MemTotal: m.Mem.TotalBytes,
		NICBytes: uint64(0.25 * float64(m.NIC.Bandwidth)),
	}
	b := m.EstimateBreakdown(d, 9)
	// Components must sum to the scalar estimate exactly.
	if !units.ApproxEqual(float64(b.Total()), float64(m.Estimate(d, 9)), 1e-9) {
		t.Errorf("breakdown total %v != estimate %v", b.Total(), m.Estimate(d, 9))
	}
	if b.Idle != m.Idle.At(9, m.Levels()) {
		t.Errorf("idle term = %v", b.Idle)
	}
	if !units.ApproxEqual(float64(b.CPU), 0.8*float64(m.CPU.DynMax(9)), 1e-9) {
		t.Errorf("cpu term = %v", b.CPU)
	}
	if !units.ApproxEqual(float64(b.Mem), 0.5*float64(m.Mem.DynMax), 1e-9) {
		t.Errorf("mem term = %v", b.Mem)
	}
	if !units.ApproxEqual(float64(b.NIC), 0.25*float64(m.NIC.DynMax), 1e-9) {
		t.Errorf("nic term = %v", b.NIC)
	}
	if s := b.String(); !strings.Contains(s, "idle") || !strings.Contains(s, "=") {
		t.Errorf("breakdown string: %q", s)
	}
}

func TestEstimateBreakdownDegenerate(t *testing.T) {
	m := TianheNode()
	b := m.EstimateBreakdown(procfs.Delta{}, 0)
	if b.CPU != 0 || b.Mem != 0 || b.NIC != 0 {
		t.Errorf("zero delta breakdown = %+v", b)
	}
	if b.Idle != m.MinPower() {
		t.Errorf("idle at floor = %v", b.Idle)
	}
}
