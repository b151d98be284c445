package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// TgPoint is one T_g ablation cell.
type TgPoint struct {
	Tg int
	PolicyResult
}

// AblationTg sweeps Algorithm 1's steady-green patience T_g under MPC.
// Small T_g restores aggressively (risking green/yellow oscillation and
// more throttle churn); large T_g holds nodes degraded long after the
// spike passed (costing performance). The paper fixes T_g = 10.
func AblationTg(sc Scale, values []int) ([]TgPoint, error) {
	if len(values) == 0 {
		values = []int{1, 5, 10, 20, 50}
	}
	return againstUncapped(sc, values,
		func(cfg *core.Config, tg int) { cfg.Tg = tg },
		func(tg int, r PolicyResult) TgPoint { return TgPoint{Tg: tg, PolicyResult: r} })
}

// AblationTgTable renders the T_g sweep.
func AblationTgTable(pts []TgPoint) *Table {
	t := &Table{
		Title:  "Ablation A1: steady-green patience T_g (MPC)",
		Header: []string{"T_g", "Pmax", "ΔP×T cut", "perf", "CPLJ", "red"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.Tg), fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction), f4(p.Performance), f3(p.CPLJFrac),
			fmt.Sprintf("%d", p.RedEntries))
	}
	return t
}

// PeriodPoint is one control-period ablation cell.
type PeriodPoint struct {
	Period time.Duration
	PolicyResult
}

// AblationPeriod sweeps the control cycle τ under MPC. Longer cycles
// react later to spikes (more overspend); shorter cycles cost more
// management overhead (Figure 5) for diminishing control benefit.
func AblationPeriod(sc Scale, values []time.Duration) ([]PeriodPoint, error) {
	if len(values) == 0 {
		values = []time.Duration{
			500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		}
	}
	return againstUncapped(sc, values,
		func(cfg *core.Config, d time.Duration) {
			cfg.ControlPeriod = d
			if d < cfg.TickPeriod {
				cfg.TickPeriod = d
			}
		},
		func(d time.Duration, r PolicyResult) PeriodPoint { return PeriodPoint{Period: d, PolicyResult: r} })
}

// AblationPeriodTable renders the control period sweep.
func AblationPeriodTable(pts []PeriodPoint) *Table {
	t := &Table{
		Title:  "Ablation A2: control cycle period τ (MPC)",
		Header: []string{"τ", "Pmax", "ΔP×T cut", "perf", "red"},
	}
	for _, p := range pts {
		t.AddRow(p.Period.String(), fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction), f4(p.Performance), fmt.Sprintf("%d", p.RedEntries))
	}
	return t
}

// MarginPoint is one threshold-margin ablation cell.
type MarginPoint struct {
	MarginL, MarginH float64
	PolicyResult
}

// AblationMargins sweeps the threshold derivation margins around the
// paper's 16%/7% (from Fan et al.). Narrow yellow bands (marginL close to
// marginH) leave little reaction room before red; wide bands throttle
// earlier and cost performance.
func AblationMargins(sc Scale, pairs [][2]float64) ([]MarginPoint, error) {
	if len(pairs) == 0 {
		pairs = [][2]float64{{0.10, 0.05}, {0.16, 0.07}, {0.20, 0.07}, {0.24, 0.12}}
	}
	return againstUncapped(sc, pairs,
		func(cfg *core.Config, p [2]float64) { cfg.MarginL, cfg.MarginH = p[0], p[1] },
		func(p [2]float64, r PolicyResult) MarginPoint {
			return MarginPoint{MarginL: p[0], MarginH: p[1], PolicyResult: r}
		})
}

// AblationMarginsTable renders the margin sweep.
func AblationMarginsTable(pts []MarginPoint) *Table {
	t := &Table{
		Title:  "Ablation A3: threshold margins (MPC; paper uses 16%/7%)",
		Header: []string{"marginL", "marginH", "Pmax", "ΔP×T cut", "perf", "red"},
	}
	for _, p := range pts {
		t.AddRow(pct(p.MarginL), pct(p.MarginH), fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.OverspendReduction), f4(p.Performance), fmt.Sprintf("%d", p.RedEntries))
	}
	return t
}
