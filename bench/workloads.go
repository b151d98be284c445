package main

import (
	"math"
	"math/rand"

	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/units"
)

// expect is what one manager's cycle must look like in one round of an
// episode. state "" accepts green or yellow but never red; cmds < 0
// accepts any command count.
type expect struct {
	state string
	cmds  int
}

// workload is one closed-loop script: a topology, the control-law
// parameters, and per round of an episode the fleet-wide utilisation mix,
// the scripted sibling's demand and the outcome to verify. An episode ends
// with every agent back at maxLevel, so episodes are interchangeable.
type workload struct {
	name string
	why  string
	topology
	maxLevel int
	tg       int
	// mix[r] blends each agent's utilisation between its low and high
	// value in round r; len(mix) is the episode length in rounds.
	mix []float64
	// sibHigh[r] makes the scripted sibling report its high demand in round r.
	sibHigh []bool
	expect  []expect
	// decision makes every round a reaction_ms sample: on a workload that
	// commands nothing the figure is the step-to-settled latency of a
	// cycle that decides to do nothing.
	decision bool
	// lo and hi bound the seeded per-agent utilisation range.
	lo, hi [2]float64
	band   band
}

// band says where a flat manager's thresholds sit relative to the fleet
// estimates the script produces (a tree's bands come from grants).
type band int

const (
	bandBetween band = iota // between the calm and spike estimates: spike rounds are red
	bandAbove               // above anything the fleet reaches: always green
	bandCross               // P_L crossed at haCross of the swing, P_H out of reach: yellow, never red
)

const (
	memTotal  = 48 << 30
	jobSize   = 8
	haPeriod  = 40
	haPhase   = 6 // the hump peaks at round 14, leaving the low rounds after it to restore before the episode ends
	haCross   = 0.35
	siblingLo = 0.6 // sibling demand as a share of the real rows' total: grants at 1.25× demand
	siblingHi = 1.5 // grants at 0.8× demand, so P_H = 0.84× draw: red
)

func workloads(small bool) []workload {
	n := func(full int) int {
		if small {
			return 32
		}
		return full
	}
	spike := []expect{{"red", n(1024)}, {"green", 0}, {"green", n(1024)}}
	ws := []workload{
		{
			name:     "flat-spike",
			why:      "1024 agents under one manager breach P_H every third round: full-fleet floor and restore, the single-tier safety path",
			topology: topology{agentsPerCabinet: n(1024)},
			maxLevel: 1, tg: 2,
			mix: []float64{1, 0, 0}, expect: spike,
			lo: [2]float64{0.10, 0.30}, hi: [2]float64{0.80, 1.00},
		},
		{
			name:     "steady-green",
			why:      "8192 agents, every round green and quiet: ingest, sense and estimate only, the bypass case for every fan-out change",
			topology: topology{agentsPerCabinet: n(8192)},
			maxLevel: 1, tg: 2,
			mix: []float64{0}, expect: []expect{{"green", 0}},
			decision: true, band: bandAbove,
			lo: [2]float64{0.20, 0.70}, hi: [2]float64{0.20, 0.70},
		},
		{
			name:     "tree-shift",
			why:      "facility, 2 rows, 8 cabinets, 1024 agents: a sibling's demand shrinks every grant, breach sensed three tiers above the last ack",
			topology: topology{rows: 2, cabinetsPerRow: 4, agentsPerCabinet: n(1024) / 8, sibling: true},
			maxLevel: 1, tg: 2,
			mix: []float64{0, 0, 0}, sibHigh: []bool{true, false, false},
			lo: [2]float64{0.30, 0.90}, hi: [2]float64{0.30, 0.90},
		},
		{
			name:     "ha-yellow",
			why:      "512 agents in jobs of 8 swing through the yellow band with journal, lease and follower attached: selection and replication on the path",
			topology: topology{agentsPerCabinet: n(512), journal: true},
			maxLevel: 9, tg: 2, band: bandCross,
			lo: [2]float64{0.40, 0.70}, hi: [2]float64{0.60, 1.00},
		},
	}
	tree := &ws[2]
	tree.expect = []expect{{"red", tree.agentsPerCabinet}, {"green", 0}, {"green", tree.agentsPerCabinet}}
	ha := &ws[3]
	for r := 0; r < haPeriod; r++ {
		ha.mix = append(ha.mix, 0.5*(1-math.Cos(2*math.Pi*float64(r+haPhase)/haPeriod)))
		ha.expect = append(ha.expect, expect{"", -1})
	}
	return ws
}

// inputs are everything the program under test is fed, derived from the
// seed alone: per-agent utilisation bounds, memory footprint, NIC traffic
// and job assignment.
type inputs struct {
	lo, hi []float64
	mem    []uint64
	nic    []uint64
	job    []int
}

func (w *workload) generate(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := w.agents()
	in := &inputs{
		lo: make([]float64, n), hi: make([]float64, n),
		mem: make([]uint64, n), nic: make([]uint64, n), job: make([]int, n),
	}
	for g := 0; g < n; g++ {
		u := rng.Float64()
		in.lo[g] = w.lo[0] + (w.lo[1]-w.lo[0])*u
		in.hi[g] = w.hi[0] + (w.hi[1]-w.hi[0])*u
		in.mem[g] = uint64((0.2 + 0.6*rng.Float64()) * memTotal)
		in.nic[g] = uint64(rng.Float64() * 2e9)
	}
	// Jobs of jobSize nodes, assigned by a seeded shuffle inside each
	// cabinet (job IDs only need to be unique per manager).
	per := w.agentsPerCabinet
	for first := 0; first < n; first += per {
		for i, p := range rng.Perm(per) {
			in.job[first+p] = 1 + i/jobSize
		}
	}
	return in
}

func (in *inputs) delta(g int, mix float64) procfs.Delta {
	return procfs.Delta{
		Interval: sampleInterval,
		CPUUtil:  in.lo[g] + (in.hi[g]-in.lo[g])*mix,
		MemUsed:  in.mem[g], MemTotal: memTotal, NICBytes: in.nic[g],
	}
}

// fleet is the model's estimate of agents [from,to) at one level and mix.
func (in *inputs) fleet(m power.Model, from, to, level int, mix float64) units.Watts {
	var p units.Watts
	for g := from; g < to; g++ {
		p += m.Estimate(in.delta(g, mix), level)
	}
	return p
}

// plan places the thresholds between the fleet estimates the script will
// produce, the experimenter's job on a real machine. sibLo and sibHi are
// the sibling's two demands (tree only).
func (w *workload) plan(in *inputs) (cfg rigConfig, sibLo, sibHi float64) {
	m := power.TianheNode()
	n := w.agents()
	top := w.maxLevel
	cfg = rigConfig{topology: w.topology, maxLevel: top, tg: w.tg, refuse: -1}
	calm := in.fleet(m, 0, n, top, 0)
	switch {
	case w.rows > 0:
		// Every cabinet's grant is its demand times budget/(total
		// demand), so one ratio moves all eight cabinets together.
		cfg.budget = 2 * calm
		cfg.ph = cfg.budget * 1.05
		cfg.thresholds = power.Thresholds{PL: 2 * calm, PH: 2.1 * calm}
		return cfg, siblingLo * float64(calm), siblingHi * float64(calm)
	case w.band == bandCross:
		// P_L is crossed at haCross of the swing with the fleet at its
		// top level; P_H is out of reach, so the fleet never goes red.
		cfg.thresholds = power.Thresholds{
			PL: in.fleet(m, 0, n, top, haCross),
			PH: 1.1 * in.fleet(m, 0, n, top, 1),
		}
	case w.band == bandAbove:
		cfg.thresholds = power.Thresholds{PL: 2 * calm, PH: 2.1 * calm}
	default:
		spike := in.fleet(m, 0, n, top, 1)
		cfg.thresholds = power.Thresholds{
			PL: calm + 0.4*(spike-calm),
			PH: calm + 0.6*(spike-calm),
		}
	}
	return cfg, 0, 0
}
