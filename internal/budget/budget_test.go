package budget

import (
	"math"
	"testing"
)

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func TestUniformSplitsEvenly(t *testing.T) {
	ds := []Demand{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	shares := Divide(400, Uniform, ds)
	for i, s := range shares {
		if math.Abs(s-100) > 1e-9 {
			t.Fatalf("share[%d] = %v, want 100", i, s)
		}
	}
}

func TestUniformRespectsCaps(t *testing.T) {
	ds := []Demand{{Cap: 10}, {}, {}}
	shares := Divide(310, Uniform, ds)
	if math.Abs(shares[0]-10) > 1e-9 {
		t.Fatalf("capped child got %v, want 10", shares[0])
	}
	if math.Abs(shares[1]-150) > 1e-9 || math.Abs(shares[2]-150) > 1e-9 {
		t.Fatalf("overflow not re-spread: %v", shares)
	}
}

func TestProportionalMatchesOnePassFormula(t *testing.T) {
	// Uncapped proportional must reproduce the two-level baseline's original formula:
	// share_i = total * max(want_i, floor) / Σ max(want_j, floor).
	ds := []Demand{
		{Want: 100, Floor: 50},
		{Want: 20, Floor: 50}, // floored up to 50
		{Want: 250, Floor: 50},
	}
	shares := Divide(1000, Proportional, ds)
	total := 100.0 + 50 + 250
	want := []float64{1000 * 100 / total, 1000 * 50 / total, 1000 * 250 / total}
	for i := range shares {
		if math.Abs(shares[i]-want[i]) > 1e-6 {
			t.Fatalf("share[%d] = %v, want %v", i, shares[i], want[i])
		}
	}
}

func TestProportionalCapOverflowRespreads(t *testing.T) {
	ds := []Demand{
		{Want: 900, Cap: 100},
		{Want: 100},
	}
	shares := Divide(1000, Proportional, ds)
	if math.Abs(shares[0]-100) > 1e-9 {
		t.Fatalf("capped child got %v, want 100", shares[0])
	}
	if math.Abs(shares[1]-900) > 1e-6 {
		t.Fatalf("overflow child got %v, want 900", shares[1])
	}
}

func TestProportionalZeroDemandFallsBackToEqual(t *testing.T) {
	ds := []Demand{{}, {}, {}}
	shares := Divide(300, Proportional, ds)
	for i, s := range shares {
		if math.Abs(s-100) > 1e-9 {
			t.Fatalf("share[%d] = %v, want 100", i, s)
		}
	}
}

func TestFairShareMeetsSmallDemandsFirst(t *testing.T) {
	// Budget 300 over demands {50, 100, 1000}: the small demands are met
	// in full, the hungry child takes what is left.
	ds := []Demand{{Want: 1000}, {Want: 50}, {Want: 100}}
	shares := Divide(300, FairShare, ds)
	if math.Abs(shares[1]-50) > 1e-9 || math.Abs(shares[2]-100) > 1e-9 {
		t.Fatalf("small demands not met: %v", shares)
	}
	if math.Abs(shares[0]-150) > 1e-6 {
		t.Fatalf("hungry child got %v, want 150", shares[0])
	}
}

func TestFairShareSurplusSpreadsAsHeadroom(t *testing.T) {
	// Budget 600 over demands {100, 100}: each is met, and the 400 W
	// surplus spreads evenly as headroom.
	ds := []Demand{{Want: 100}, {Want: 100}}
	shares := Divide(600, FairShare, ds)
	for i, s := range shares {
		if math.Abs(s-300) > 1e-6 {
			t.Fatalf("share[%d] = %v, want 300", i, s)
		}
	}
}

func TestFairShareSurplusRespectsCaps(t *testing.T) {
	ds := []Demand{{Want: 100, Cap: 150}, {Want: 100}}
	shares := Divide(600, FairShare, ds)
	if shares[0] > 150+1e-9 {
		t.Fatalf("capped child exceeded breaker: %v", shares[0])
	}
	if s := sum(shares); s > 600+1e-6 {
		t.Fatalf("shares sum %v above budget", s)
	}
	if math.Abs(shares[1]-450) > 1e-6 {
		t.Fatalf("uncapped child got %v, want 450", shares[1])
	}
}

func TestDivideDegenerateInputs(t *testing.T) {
	if got := Divide(0, Proportional, []Demand{{Want: 1}}); got[0] != 0 {
		t.Fatalf("zero budget gave %v", got)
	}
	if got := Divide(-5, FairShare, []Demand{{Want: 1}}); got[0] != 0 {
		t.Fatalf("negative budget gave %v", got)
	}
	if got := Divide(100, Uniform, nil); len(got) != 0 {
		t.Fatalf("empty demands gave %v", got)
	}
	// Budget smaller than the sum of caps still sums correctly.
	shares := Divide(10, Uniform, []Demand{{Cap: 100}, {Cap: 100}})
	if s := sum(shares); math.Abs(s-10) > 1e-9 {
		t.Fatalf("tiny budget mis-summed: %v", shares)
	}
}

func TestDivisionParseRoundTrip(t *testing.T) {
	for _, d := range []Division{Uniform, Proportional, FairShare} {
		got, err := ParseDivision(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDivision(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDivision("nope"); err == nil {
		t.Fatal("ParseDivision accepted garbage")
	}
	if Division(42).Valid() {
		t.Fatal("Division(42) claims valid")
	}
}
