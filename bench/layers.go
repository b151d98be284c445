package main

import (
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// metric is one reported number. Every value goes out with all its digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	name, unit, better string
}

// endToEnd and perLayer are the benchmark's vocabulary; BENCHMARK.json
// lists the same names (bench_test.go holds the two together).
var endToEnd = []metricDef{
	{"reaction_ms_p50", "ms", "lower"},
	{"agent_rounds_per_s", "1/s", "higher"},
	{"mem_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"wire.encode_ns.command", "ns", "lower"},
	{"wire.encode_ns.sample", "ns", "lower"},
	{"wire.encode_ns.ack", "ns", "lower"},
	{"wire.encode_ns.cab_budget", "ns", "lower"},
	{"wire.encode_ns.journal_append", "ns", "lower"},
	{"wire.decode_ns.command", "ns", "lower"},
	{"wire.decode_ns.sample", "ns", "lower"},
	{"wire.decode_ns.ack", "ns", "lower"},
	{"wire.decode_ns.cab_report", "ns", "lower"},
	{"wire.decode_ns.journal_append", "ns", "lower"},
	{"wire.json_encode_ns.sample", "ns", "lower"},
	{"wire.json_decode_ns.sample", "ns", "lower"},
	{"wire.frame_bytes.command", "B", "lower"},
	{"wire.frame_bytes.sample", "B", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	{"faultnet.frame_ns", "ns", "lower"},
	{"faultnet.tcp_ref_frame_ns", "ns", "lower"},
	{"managerd.ingest_us_per_sample", "us", "lower"},
	{"managerd.cycle_us.red", "us", "lower"},
	{"managerd.cycle_us.yellow", "us", "lower"},
	{"managerd.cycle_us.green_quiet", "us", "lower"},
	{"managerd.cycle_us.green_restore", "us", "lower"},
	{"managerd.sense_us", "us", "lower"},
	{"managerd.actuate_us", "us", "lower"},
	{"managerd.settle_us", "us", "lower"},
	{"managerd.reaction_ms_p95", "ms", "lower"},
	{"managerd.fanout_us_per_cmd", "us", "lower"},
	{"managerd.ack_wait_us", "us", "lower"},
	{"managerd.cmds_per_round", "count", "lower"},
	{"managerd.coalesced_cmds", "count", "lower"},
	{"managerd.cmd_retries", "count", "lower"},
	{"managerd.useful_cmd_ratio", "ratio", "higher"},
	{"managerd.status_us", "us", "lower"},
	{"managerd.goroutines", "count", "lower"},
	{"managerd.allocs_per_agent_round", "count", "lower"},
	{"managerd.bytes_per_agent_round", "B", "lower"},
	{"managerd.mem_sys_mb", "MiB", "lower"},
	{"managerd.red_cycle_us_per_agent.n128", "us", "lower"},
	{"managerd.red_cycle_us_per_agent.n1024", "us", "lower"},
	{"managerd.red_cycle_us_per_agent.n4096", "us", "lower"},
	{"managerd.red_cycle_us_per_agent.n16384", "us", "lower"},
	{"agentd.command_rtt_us", "us", "lower"},
	{"manager.build_us.n1024", "us", "lower"},
	{"manager.cycle_us.red.n1024", "us", "lower"},
	{"manager.cycle_us.yellow.n1024", "us", "lower"},
	{"manager.cycle_us.green.n1024", "us", "lower"},
	{"power.estimate_ns", "ns", "lower"},
	{"policy.select_us.mpc-c.n1024", "us", "lower"},
	{"policy.select_us.hri-c.n1024", "us", "lower"},
	{"policy.select_us.bfp.n1024", "us", "lower"},
	{"budget.divide_us.n8", "us", "lower"},
	{"budget.divide_us.n128", "us", "lower"},
	{"budget.divide_us.n1024", "us", "lower"},
	{"budget.divide_us.fair.n128", "us", "lower"},
	{"fedd.step_us.facility", "us", "lower"},
	{"fedd.step_us.row", "us", "lower"},
	{"tier.grant_hop_us", "us", "lower"},
	{"tier.grants_sent", "count", "lower"},
	{"tier.grantor_cycle_us.n8", "us", "lower"},
	{"tier.grantor_cycle_us.n128", "us", "lower"},
	{"replica.commit_us", "us", "lower"},
	{"replica.commit_us.mem", "us", "lower"},
	{"replica.publish_to_ack_us", "us", "lower"},
	{"replica.lag_entries_max", "count", "lower"},
	{"replica.journal_appends", "count", "lower"},
	{"replica.journal_bytes", "B", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.gauge_set_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"obs.cycle_span_ns", "ns", "lower"},
	{"obs.prometheus_render_us", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// traceAcc collects what the traced run measures beside its spans.
type traceAcc struct {
	fanout time.Duration // Σ StepCycle return values over commanding cycles
	cmds   int
	allocs uint64 // heap objects allocated inside rounds, process-wide
	bytes  uint64

	statusDur time.Duration
	statusN   int
	lagMax    int
	logPath   string // the journal's append log; "" without a journal
	logSize   int64
	logBytes  int64 // bytes appended, summed over growth between rounds
}

// betweenRounds samples what must not sit inside a round: one timed
// Status() probe (the operator's read path, and where replication lag is
// visible) and the journal log's growth.
func (a *traceAcc) betweenRounds(rg *rig) {
	t := time.Now()
	st := rg.cabs[0].Server.Status()
	a.statusDur += time.Since(t)
	a.statusN++
	if st.ReplicaLagEntries > a.lagMax {
		a.lagMax = st.ReplicaLagEntries
	}
	if a.logPath == "" {
		return
	}
	if fi, err := os.Stat(a.logPath); err == nil {
		// Compaction truncates the log; only growth is appended bytes.
		if fi.Size() > a.logSize {
			a.logBytes += fi.Size() - a.logSize
		}
		a.logSize = fi.Size()
	}
}

// counters is a snapshot of the program's own instruments, summed over
// every manager (and coordinator, for grants) of the rig.
type counters struct {
	stageSum, stageN           map[string]float64
	acks, retries, coalesced   int64
	journalAppends, grantsSent int64
	degradeOps, restoreOps     int64
}

func readCounters(rg *rig) counters {
	c := counters{stageSum: map[string]float64{}, stageN: map[string]float64{}}
	for _, cab := range rg.cabs {
		reg := cab.Server.Obs()
		for _, st := range []string{"sense", "actuate", "settle"} {
			h := reg.Histogram("cycle_stage_" + st + "_micros")
			c.stageSum[st] += h.Sum()
			c.stageN[st] += float64(h.Count())
		}
		c.acks += reg.Counter("command_acks").Value()
		c.retries += reg.Counter("command_retries").Value()
		c.coalesced += reg.Counter("coalesced_cmds").Value()
		c.journalAppends += reg.Counter("journal_appends").Value()
		c.degradeOps += reg.Counter("degrade_ops").Value()
		c.restoreOps += reg.Counter("restore_ops").Value()
	}
	for _, row := range rg.rows {
		c.grantsSent += row.Obs().Counter("grants_sent").Value()
	}
	if rg.facility != nil {
		c.grantsSent += rg.facility.Obs().Counter("grants_sent").Value()
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics turns one traced phase into the workload-derived per-layer
// metrics. A layer the workload does not exercise reports 0.
func layerMetrics(d *driver, before, after counters) map[string]float64 {
	_, total, count := d.tr.selfTimes()
	mean := func(key string) float64 { return ratio(us(total[key]), float64(count[key])) }
	agentRounds := float64(d.rounds * d.w.agents())
	rounds := float64(d.rounds)
	written := float64(after.degradeOps-before.degradeOps+after.restoreOps-before.restoreOps) +
		float64(after.retries-before.retries)
	m := map[string]float64{
		"managerd.ingest_us_per_sample":   ratio(us(total["push"]+total["ingest_wait"]), agentRounds),
		"managerd.cycle_us.red":           mean("managerd_step.red"),
		"managerd.cycle_us.yellow":        mean("managerd_step.yellow"),
		"managerd.cycle_us.green_quiet":   mean("managerd_step.green_quiet"),
		"managerd.cycle_us.green_restore": mean("managerd_step.green_restore"),
		"managerd.fanout_us_per_cmd":      ratio(us(d.acc.fanout), float64(d.acc.cmds)),
		"managerd.ack_wait_us":            mean("ack_wait.commanded"),
		"managerd.cmds_per_round":         ratio(float64(d.acc.cmds), rounds),
		"managerd.coalesced_cmds":         float64(after.coalesced - before.coalesced),
		"managerd.cmd_retries":            float64(after.retries - before.retries),
		"managerd.useful_cmd_ratio":       ratio(float64(after.acks-before.acks), written),
		"managerd.status_us":              ratio(us(d.acc.statusDur), float64(d.acc.statusN)),
		"managerd.goroutines":             float64(runtime.NumGoroutine()),
		"managerd.allocs_per_agent_round": ratio(float64(d.acc.allocs), agentRounds),
		"managerd.bytes_per_agent_round":  ratio(float64(d.acc.bytes), agentRounds),
		"fedd.step_us.facility":           mean("fedd_step.facility"),
		"fedd.step_us.row":                mean("fedd_step.row"),
		"tier.grant_hop_us": ratio(us(total["grant_hop.facility"]+total["grant_hop.row"]),
			float64(count["grant_hop.facility"]+count["grant_hop.row"])),
		"tier.grants_sent":        ratio(float64(after.grantsSent-before.grantsSent), rounds),
		"replica.lag_entries_max": float64(d.acc.lagMax),
		"replica.journal_appends": ratio(float64(after.journalAppends-before.journalAppends), rounds),
		"replica.journal_bytes":   ratio(float64(d.acc.logBytes), float64(after.journalAppends-before.journalAppends)),
	}
	for _, st := range []string{"sense", "actuate", "settle"} {
		m["managerd."+st+"_us"] = ratio(after.stageSum[st]-before.stageSum[st], after.stageN[st]-before.stageN[st])
	}
	return m
}

// cycleTimelines returns the program's own staged timelines of the last
// cycles, one record per manager cycle, to sit beside the driver's spans
// in the trace file.
func cycleTimelines(rg *rig) []any {
	var out []any
	for c, cab := range rg.cabs {
		for _, cs := range cab.Server.CycleTrace().Spans(0) {
			out = append(out, struct {
				Name    string        `json:"name"`
				Cabinet int           `json:"cabinet"`
				Span    obs.CycleSpan `json:"span"`
			}{"managerd.cycle", c, cs})
		}
	}
	return out
}
