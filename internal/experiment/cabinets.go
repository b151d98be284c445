package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/units"
)

// CabinetPoint is one (placement, policy) cell of the distribution study.
type CabinetPoint struct {
	Placement string
	Policy    string
	PolicyResult
	HottestPeak   units.Watts
	PeakImbalance float64
	TripRisk      float64
}

// CabinetStudy examines the power-distribution hierarchy beneath the
// global budget (extension E6): the cluster is laid out in 4 cabinets
// with individual PDU breaker ratings, and job placement either packs
// jobs into contiguous racks (first-fit, the default batch behaviour) or
// spreads each job across cabinets. A globally capped system can still
// concentrate load in one rack; placement is the lever that controls the
// per-cabinet peak and breaker-trip exposure.
func CabinetStudy(sc Scale) ([]CabinetPoint, error) {
	setups := [][2]string{{"firstfit", "none"}, {"firstfit", "mpc"}, {"spread", "none"}, {"spread", "mpc"}}
	cells := make([]cell, len(setups))
	for i, st := range setups {
		cells[i] = policyCell(st[1], func(cfg *core.Config) {
			cfg.Cabinets = 4
			cfg.Placement = st[0]
		})
	}
	runs, err := sc.run(cells)
	if err != nil {
		return nil, fmt.Errorf("cabinets: %w", err)
	}
	hottest := func(r *core.Result) float64 {
		h := 0.0
		for _, c := range r.Cabinets.Cabinets {
			h = max(h, float64(c.Peak))
		}
		return h
	}
	out := make([]CabinetPoint, len(setups))
	for i, rs := range runs {
		out[i] = CabinetPoint{
			Placement:     setups[i][0],
			Policy:        setups[i][1],
			PolicyResult:  summarise(setups[i][1], rs),
			HottestPeak:   units.Watts(mean(rs, hottest)),
			PeakImbalance: mean(rs, func(r *core.Result) float64 { return r.Cabinets.PeakImbalance }),
			TripRisk:      mean(rs, func(r *core.Result) float64 { return r.Cabinets.TripRiskFraction }),
		}
	}
	return out, nil
}

// CabinetTable renders the study.
func CabinetTable(pts []CabinetPoint) *Table {
	t := &Table{
		Title:  "Extension E6: power distribution — placement vs per-cabinet peaks (4 cabinets)",
		Header: []string{"placement", "policy", "hottest cab", "imbalance", "trip risk", "perf"},
		Notes: []string{
			"imbalance = hottest cabinet peak / mean cabinet peak (1.0 = balanced racks)",
			"trip risk = fraction of intervals with a cabinet above its breaker rating",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Placement, p.Policy,
			fmt.Sprintf("%.2f kW", p.HottestPeak.KW()),
			f3(p.PeakImbalance), pct(p.TripRisk), f4(p.Performance))
	}
	return t
}
