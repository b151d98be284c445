package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agentd"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

// CostPoint is one Figure 5 measurement: the global manager's measured CPU
// utilisation (busy time over control time) when monitoring a candidate
// set of the given size.
type CostPoint struct {
	Agents     int
	Cycles     int
	BusyMicros int64
	CPUUtil    float64
}

// Figure5Config tunes the daemon-based management cost measurement.
type Figure5Config struct {
	// Sizes are the candidate set sizes to measure.
	Sizes []int
	// PerSize is the wall-clock measurement window per size.
	PerSize time.Duration
	// ControlEvery is the manager's control period; agents sample at the
	// same rate.
	ControlEvery time.Duration
}

// DefaultFigure5 returns the default measurement: the paper's candidate
// sizes at a 100 ms control period for 2 s each (the short period stands
// in for 1 s cycles so the measurement finishes quickly; utilisation is a
// ratio, so the curve's shape is preserved).
func DefaultFigure5() Figure5Config {
	return Figure5Config{
		Sizes:        []int{0, 16, 32, 48, 64, 96, 128},
		PerSize:      2 * time.Second,
		ControlEvery: 100 * time.Millisecond,
	}
}

// Figure5 reproduces the paper's Figure 5 by measurement, not modelling:
// it starts the real manager daemon and a fleet of real profiling agents
// on loopback TCP, lets the control loop run, and reads the manager's
// accounted busy time. Paper finding: the central manager's CPU
// utilisation rises non-linearly with the number of monitored nodes,
// which is why profiling only a subset A_candidate is necessary.
func Figure5(cfg Figure5Config) ([]CostPoint, error) {
	if len(cfg.Sizes) == 0 || cfg.PerSize <= 0 || cfg.ControlEvery <= 0 {
		return nil, fmt.Errorf("experiment: invalid figure 5 config")
	}
	var out []CostPoint
	for _, n := range cfg.Sizes {
		pt, err := measureManagerCost(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure5 n=%d: %w", n, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func measureManagerCost(n int, cfg Figure5Config) (CostPoint, error) {
	// Thresholds in the yellow band for a fleet of busy simulated nodes
	// (≈250 W each), so the policy selection path does real work every
	// cycle — the cost Figure 5 accounts.
	thr := power.Thresholds{
		PL: units.Watts(200 * float64(n)),
		PH: units.Watts(320 * float64(n)),
	}
	if n == 0 {
		thr = power.Thresholds{PL: 1, PH: 2}
	}
	srv, err := managerd.New(managerd.Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPCC{},
		Tg:           10,
		ControlEvery: cfg.ControlEvery,
		Thresholds:   thr,
	})
	if err != nil {
		return CostPoint{}, err
	}
	if err := srv.Start(); err != nil {
		return CostPoint{}, err
	}
	defer srv.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		a, err := agentd.New(agentd.Config{
			NodeID:       node.ID(i),
			ManagerAddrs: []string{srv.Addr()},
			SampleEvery:  cfg.ControlEvery,
			TickEvery:    cfg.ControlEvery / 4,
			Model:        power.TianheNode(),
			Seed:         int64(i + 1),
		})
		if err != nil {
			return CostPoint{}, err
		}
		go func() { _ = a.Run(ctx) }()
	}

	time.Sleep(cfg.PerSize)
	st := srv.Status()
	return CostPoint{
		Agents:     n,
		Cycles:     st.Cycles,
		BusyMicros: st.BusyMicros,
		CPUUtil:    st.CPUUtilise,
	}, nil
}

// Figure5Table renders the measurement.
func Figure5Table(pts []CostPoint) *Table {
	t := &Table{
		Title:  "Figure 5: global manager CPU utilisation vs |A_candidate| (measured over TCP)",
		Header: []string{"|A_candidate|", "cycles", "busy (µs)", "CPU utilisation"},
		Notes: []string{
			"paper: cost rises non-linearly with monitored nodes; profiling a subset is necessary",
		},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.Agents), fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%d", p.BusyMicros), fmt.Sprintf("%.4f", p.CPUUtil))
	}
	return t
}
