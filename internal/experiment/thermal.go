package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/units"
)

// ThermalPoint is one policy's thermal outcome.
type ThermalPoint struct {
	Policy string
	PolicyResult
	PeakC             float64
	MeanFinalC        float64
	FailureMultiplier float64
	CoolingEnergy     units.Joules
}

// ThermalStudy runs the §I.A motivation quantitatively: with the thermal
// model enabled (RC temperatures, temperature→power leakage, the Feng
// failure-doubling rule and the LLNL 0.7 W/W cooling overhead), compare
// the uncapped baseline against capping policies on peak temperature,
// expected failure-rate multiplier and cooling energy. This is the
// physical meaning the paper assigns to ΔP×T — "the accumulative thermal
// impact caused by overspending power budget" — made explicit.
func ThermalStudy(sc Scale, policies []string) ([]ThermalPoint, error) {
	if len(policies) == 0 {
		policies = []string{"none", "mpc", "hri"}
	}
	runs, err := sc.run(policyCells(policies, func(cfg *core.Config) { cfg.ThermalEnabled = true }))
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	out := make([]ThermalPoint, len(policies))
	for i, rs := range runs {
		out[i] = ThermalPoint{
			Policy:            policies[i],
			PolicyResult:      summarise(policies[i], rs),
			PeakC:             mean(rs, func(r *core.Result) float64 { return r.Thermal.PeakC }),
			MeanFinalC:        mean(rs, func(r *core.Result) float64 { return r.Thermal.MeanFinalC }),
			FailureMultiplier: mean(rs, func(r *core.Result) float64 { return r.Thermal.FailureMultiplier }),
			CoolingEnergy:     units.Joules(mean(rs, func(r *core.Result) float64 { return float64(r.Thermal.CoolingEnergy) })),
		}
	}
	return out, nil
}

// ThermalTable renders the study.
func ThermalTable(pts []ThermalPoint) *Table {
	t := &Table{
		Title:  "Thermal study (§I.A motivation): capping's effect on heat, reliability, cooling",
		Header: []string{"policy", "Pmax", "peak °C", "fail ×", "cooling", "perf"},
		Notes: []string{
			"fail × = time-averaged failure-rate multiplier (doubles per +10 °C, Feng)",
			"cooling = energy the plant spends removing heat (0.7 W per IT watt, LLNL)",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Policy,
			fmt.Sprintf("%.2f kW", p.PMax.KW()),
			fmt.Sprintf("%.1f", p.PeakC),
			fmt.Sprintf("%.3f", p.FailureMultiplier),
			fmt.Sprintf("%.1f kWh", p.CoolingEnergy.KWh()),
			f4(p.Performance))
	}
	return t
}
