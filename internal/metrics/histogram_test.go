package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(&Series{})
	if !h.Empty() {
		t.Error("empty series produced mass")
	}
	if !math.IsNaN(float64(h.Quantile(0.5))) {
		t.Error("empty quantile not NaN")
	}
	if !strings.Contains(h.String(), "empty") {
		t.Error("empty String")
	}
	single := &Series{}
	single.Add(0, 100)
	if !NewHistogram(single).Empty() {
		t.Error("single sample carries no interval mass")
	}
}

func TestHistogramQuantilesUniform(t *testing.T) {
	// Constant 100 W: every quantile is 100.
	s := series(t, 100, 100, 100, 100)
	h := NewHistogram(s)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("Quantile(%v) = %v", q, got)
		}
	}
}

func TestHistogramQuantilesTimeWeighted(t *testing.T) {
	// 9 s at 100 W, then 1 s at 200 W: p50 must be 100, p99 near 200.
	s := &Series{}
	for i := 0; i <= 9; i++ {
		s.Add(time.Duration(i)*time.Second, 100)
	}
	s.Add(10*time.Second, 200)
	h := NewHistogram(s)
	if got := h.Quantile(0.5); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := h.Quantile(0.99); got < 140 {
		t.Errorf("p99 = %v, want the high segment", got)
	}
	// Out-of-range q clamps.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

// Property: quantiles are monotone in q and bounded by the series range.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, qa, qb uint8) bool {
		if len(vals) < 2 {
			return true
		}
		s := &Series{}
		lo, hi := math.MaxFloat64, 0.0
		for i, v := range vals {
			s.Add(time.Duration(i)*time.Second, units.Watts(v))
			if fv := float64(v); fv < lo {
				lo = fv
			}
			if fv := float64(v); fv > hi {
				hi = fv
			}
		}
		h := NewHistogram(s)
		a, b := float64(qa)/255, float64(qb)/255
		if a > b {
			a, b = b, a
		}
		va, vb := float64(h.Quantile(a)), float64(h.Quantile(b))
		return va <= vb && va >= lo-1e-9 && vb <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
