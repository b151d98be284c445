// Daemons: the architecture of Figure 1 as real processes — a global
// manager daemon and a fleet of per-node profiling agents talking the wire
// protocol over loopback TCP (binary frames, negotiated at hello; JSON is
// the fallback). The agents drive simulated Tianhe nodes in real time; the
// manager runs Algorithm 1 every 100 ms with thresholds chosen inside the
// fleet's power band, so degrade/restore commands actually flow. After a
// few seconds the example prints the manager's status — including its own
// measured CPU cost, the quantity Figure 5 plots.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/agentd"
	"repro/internal/managerd"
	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/units"
)

func main() {
	const agents = 32

	// Thresholds inside the band of 32 busy simulated nodes (~250 W
	// each): the fleet will cross P_L regularly and get throttled.
	srv, err := managerd.New(managerd.Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPCC{},
		Tg:           10,
		ControlEvery: 100 * time.Millisecond,
		Thresholds:   power.Thresholds{PL: units.KW(6.8), PH: units.KW(8.2)},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()
	fmt.Printf("manager listening on %s\n", srv.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fleet := make([]*agentd.Agent, 0, agents)
	for i := 0; i < agents; i++ {
		a, err := agentd.New(agentd.Config{
			NodeID:      node.ID(i),
			ManagerAddr: srv.Addr(),
			SampleEvery: 100 * time.Millisecond,
			TickEvery:   20 * time.Millisecond,
			Model:       power.TianheNode(),
			Seed:        int64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		fleet = append(fleet, a)
		go func() { _ = a.Run(ctx) }()
	}
	fmt.Printf("%d agents connected, capping for 5 s of wall time...\n\n", agents)
	time.Sleep(5 * time.Second)

	st := srv.Status()
	fmt.Printf("agents        %d\n", st.Agents)
	fmt.Printf("cycles        %d (green %d, yellow %d, red %d)\n",
		st.Cycles, st.GreenCycles, st.YellowCycles, st.RedCycles)
	fmt.Printf("ops           degrade %d, restore %d\n", st.DegradeOps, st.RestoreOps)
	fmt.Printf("fleet power   %.0f W (PL %.0f, PH %.0f)\n", st.LastPowerW, st.ThresholdPLW, st.ThresholdPHW)
	fmt.Printf("manager cost  %.4f CPU utilisation (Figure 5's metric)\n", st.CPUUtilise)

	applied, floor := 0, 10
	for _, a := range fleet {
		applied += a.CommandsApplied()
		if l := a.Level(); l < floor {
			floor = l
		}
	}
	fmt.Printf("agents        %d commands applied, lowest level reached %d\n", applied, floor)
}
