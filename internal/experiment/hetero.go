package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/power"
)

// OlderNode returns the profile model of a previous-generation node for
// heterogeneous studies: five DVFS levels, lower static and dynamic power.
// Heterogeneity here is in the power envelope, not speed — each node runs
// jobs at full rate at its own top level, which isolates the control
// question (can Algorithm 1 manage a mixed fleet?) from scheduling
// questions the paper does not treat.
func OlderNode() power.Model {
	m := power.TianheNode()
	m.CPU.Freqs = m.CPU.Freqs[:5]
	m.CPU.DynMaxPerSocket = 45
	m.Idle = device.IdleCurve{Min: 80, Max: 105}
	m.Mem.DynMax = 40
	m.NIC.DynMax = 15
	return m
}

// HeteroPoint is one fleet composition's outcome.
type HeteroPoint struct {
	Fleet string
	PolicyResult
}

// HeteroStudy runs MPC capping on a homogeneous Tianhe fleet and on a
// 50/50 mix of Tianhe and previous-generation nodes (§III.B property 1:
// the capping algorithm "is applicable to both heterogeneous and
// homogeneous systems ... as far as the power states of a node are
// discrete"). Each fleet is compared against its own uncapped baseline.
func HeteroStudy(sc Scale) ([]HeteroPoint, error) {
	old := OlderNode()
	fleets := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"homogeneous", func(*core.Config) {}},
		{"50/50 mixed", func(cfg *core.Config) {
			cfg.ModelFor = func(i int) power.Model {
				if i%2 == 1 {
					return old
				}
				return power.TianheNode()
			}
			// The mixed fleet peaks lower; scale the provision so the
			// capping question stays comparable.
			cfg.PMax = cfg.PMax * 85 / 100
		}},
	}
	var cells []cell
	for _, fl := range fleets {
		cells = append(cells, policyCell("none", fl.mutate), policyCell("mpc", fl.mutate))
	}
	runs, err := sc.run(cells)
	if err != nil {
		return nil, fmt.Errorf("hetero: %w", err)
	}
	out := make([]HeteroPoint, len(fleets))
	for i, fl := range fleets {
		// Each fleet against its own uncapped baseline.
		out[i] = HeteroPoint{Fleet: fl.name, PolicyResult: compared(cells[2*i:2*i+2], runs[2*i:2*i+2])[1]}
	}
	return out, nil
}

// HeteroTable renders the study.
func HeteroTable(pts []HeteroPoint) *Table {
	t := &Table{
		Title:  "Extension E8: heterogeneous fleet (§III.B property 1) under MPC",
		Header: []string{"fleet", "Pmax", "Pmax cut", "ΔP×T cut", "perf", "red"},
		Notes: []string{
			"mixed fleet: alternating Tianhe (10 levels) and previous-gen (5 levels) nodes",
			"cuts are against each fleet's own uncapped baseline",
		},
	}
	for _, p := range pts {
		t.AddRow(p.Fleet, fmt.Sprintf("%.2f kW", p.PMax.KW()),
			pct(p.PMaxReduction), pct(p.OverspendReduction),
			f4(p.Performance), fmt.Sprintf("%d", p.RedEntries))
	}
	return t
}
