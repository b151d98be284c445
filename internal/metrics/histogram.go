package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Histogram summarises the distribution of a power series as exact
// time-weighted quantiles. Facility planners read p99/p999 of the
// power signal when sizing feeds and breakers, which is exactly the
// provisioning question the paper opens with.
type Histogram struct {
	weights []weightedSample
	sorted  bool
}

type weightedSample struct {
	w float64 // seconds this level was held (trapezoid midpoint weight)
	p float64 // watts
}

// NewHistogram builds a time-weighted histogram from a series. Each
// segment between consecutive samples contributes its midpoint power with
// the segment duration as weight; an empty or single-sample series yields
// an empty histogram.
func NewHistogram(s *Series) *Histogram {
	h := &Histogram{}
	for i := 1; i < s.Len(); i++ {
		t0, p0 := s.At(i - 1)
		t1, p1 := s.At(i)
		w := (t1 - t0).Seconds()
		if w <= 0 {
			continue
		}
		h.weights = append(h.weights, weightedSample{w: w, p: float64(p0+p1) / 2})
	}
	return h
}

// Empty reports whether the histogram carries no mass.
func (h *Histogram) Empty() bool { return len(h.weights) == 0 }

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Slice(h.weights, func(a, b int) bool { return h.weights[a].p < h.weights[b].p })
		h.sorted = true
	}
}

// Quantile returns the time-weighted q-quantile (q ∈ [0,1]) of the power
// signal: the level below which the system spent a q fraction of its
// time. NaN on an empty histogram.
func (h *Histogram) Quantile(q float64) units.Watts {
	if h.Empty() {
		return units.Watts(math.NaN())
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.sort()
	total := 0.0
	for _, w := range h.weights {
		total += w.w
	}
	target := q * total
	acc := 0.0
	for _, w := range h.weights {
		acc += w.w
		if acc >= target {
			return units.Watts(w.p)
		}
	}
	return units.Watts(h.weights[len(h.weights)-1].p)
}

// Quantiles is a convenience for several quantiles at once.
func (h *Histogram) Quantiles(qs ...float64) []units.Watts {
	out := make([]units.Watts, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// String renders the headline quantiles.
func (h *Histogram) String() string {
	if h.Empty() {
		return "histogram: empty"
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	return fmt.Sprintf("p50=%v p95=%v p99=%v", qs[0], qs[1], qs[2])
}
