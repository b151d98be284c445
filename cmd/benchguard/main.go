// Command benchguard compares freshly measured benchmark results against
// committed baselines and fails when any guarded number has regressed
// beyond the allowed ratio. CI runs it after the measurement steps so a
// control-plane slowdown fails the build instead of silently shifting
// the perf trajectory.
//
// It guards two files. BENCH_fanout.json holds ns/op from the fan-out
// micro-benchmarks, keyed by (bench, agents):
//
//	benchguard -baseline BENCH_baseline.json -candidate BENCH_fanout.json \
//	    -bench CycleFanout -agents 128,512 -max-ratio 2.0
//
// BENCH_scenarios.json holds powbench's per-scenario end-to-end numbers,
// keyed by (scenario, agents); the guarded metric is selectable:
//
//	benchguard -bench '' \
//	    -scenario-baseline BENCH_scenarios_baseline.json \
//	    -scenario-candidate BENCH_scenarios.json \
//	    -scenario-metric status_p99_us -scenario-max-ratio 4.0
//
// An empty -bench skips the fan-out guard; leaving -scenario-baseline
// empty skips the scenario guard. A scenario present only in the
// candidate is reported NEW and passes (the next baseline refresh adopts
// it); a baseline scenario missing from the candidate, or a metric key
// absent from either side, is a failure — coverage must never shrink
// silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry mirrors the benchEntry schema persisted by the repo's fan-out
// benchmarks; unknown fields are ignored. AllocsPerOp is zero when the
// file predates allocation tracking — the allocs guard skips such pairs
// rather than failing on an older baseline.
type entry struct {
	Bench       string  `json:"bench"`
	Agents      int     `json:"agents"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")

	var (
		baseline  = flag.String("baseline", "BENCH_baseline.json", "committed baseline results")
		candidate = flag.String("candidate", "BENCH_fanout.json", "freshly measured results")
		benches   = flag.String("bench", "CycleFanout", "comma-separated benchmark names to guard (empty = skip fan-out guard)")
		agents    = flag.String("agents", "128,512", "comma-separated fleet sizes to guard")
		maxRatio  = flag.Float64("max-ratio", 2.0, "fail when candidate ns/op exceeds baseline by this factor")
		allocsMax = flag.Float64("allocs-max-ratio", 0, "fail when candidate allocs/op exceeds baseline by this factor (0 = skip; pairs without allocs data are skipped)")

		scBaseline  = flag.String("scenario-baseline", "", "committed BENCH_scenarios baseline (empty = skip scenario guard)")
		scCandidate = flag.String("scenario-candidate", "BENCH_scenarios.json", "freshly measured scenario results")
		scMetric    = flag.String("scenario-metric", "status_p99_us", "numeric key guarded per scenario")
		scMaxRatio  = flag.Float64("scenario-max-ratio", 4.0, "fail when the candidate metric exceeds baseline by this factor")
	)
	flag.Parse()

	failed := false
	if *benches != "" {
		base, err := load(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		cand, err := load(*candidate)
		if err != nil {
			log.Fatal(err)
		}
		sizes, err := parseAgents(*agents)
		if err != nil {
			log.Fatal(err)
		}
		report, err := guard(base, cand, strings.Split(*benches, ","), sizes, *maxRatio, *allocsMax)
		for _, line := range report {
			fmt.Println(line)
		}
		if err != nil {
			log.Print(err)
			failed = true
		}
	}
	if *scBaseline != "" {
		base, err := loadScenarios(*scBaseline)
		if err != nil {
			log.Fatal(err)
		}
		cand, err := loadScenarios(*scCandidate)
		if err != nil {
			log.Fatal(err)
		}
		report, err := scenarioGuard(base, cand, *scMetric, *scMaxRatio)
		for _, line := range report {
			fmt.Println(line)
		}
		if err != nil {
			log.Print(err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func load(path string) ([]entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var es []entry
	if err := json.Unmarshal(raw, &es); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return es, nil
}

func parseAgents(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-agents: %w", err)
		}
		out = append(out, n)
	}
	return out, nil
}

// find returns the entry for a bench/agents pair.
func find(es []entry, bench string, agents int) (entry, bool) {
	for _, e := range es {
		if e.Bench == bench && e.Agents == agents {
			return e, true
		}
	}
	return entry{}, false
}

// guard compares every guarded bench/agents pair and returns the report
// lines plus an error naming the first failure class encountered. A pair
// missing from either file is a failure: a renamed or dropped benchmark
// must update the guard, not silently evade it. With allocsMax > 0 the
// pair's allocs/op is held to the same treatment, except that a side
// without allocation data (an older baseline, or a GC race reading zero)
// skips the allocs check for that pair instead of failing — ns/op is the
// mandatory metric, allocs/op the opt-in one.
func guard(base, cand []entry, benches []string, agents []int, maxRatio, allocsMax float64) ([]string, error) {
	var report []string
	var regressed, missing []string
	for _, bench := range benches {
		bench = strings.TrimSpace(bench)
		for _, n := range agents {
			name := fmt.Sprintf("%s/n%d", bench, n)
			b, okB := find(base, bench, n)
			c, okC := find(cand, bench, n)
			if !okB || !okC {
				report = append(report, fmt.Sprintf("%-24s MISSING (baseline %v, candidate %v)", name, okB, okC))
				missing = append(missing, name)
				continue
			}
			ratio := c.NsPerOp / b.NsPerOp
			verdict := "ok"
			if ratio > maxRatio {
				verdict = "REGRESSED"
				regressed = append(regressed, name)
			}
			report = append(report, fmt.Sprintf("%-24s %12.0f → %12.0f ns/op  (%.2fx, limit %.2fx)  %s",
				name, b.NsPerOp, c.NsPerOp, ratio, maxRatio, verdict))
			if allocsMax <= 0 {
				continue
			}
			if b.AllocsPerOp <= 0 || c.AllocsPerOp <= 0 {
				report = append(report, fmt.Sprintf("%-24s allocs/op data absent, skipped", name))
				continue
			}
			aRatio := c.AllocsPerOp / b.AllocsPerOp
			aVerdict := "ok"
			if aRatio > allocsMax {
				aVerdict = "REGRESSED"
				regressed = append(regressed, name+" allocs")
			}
			report = append(report, fmt.Sprintf("%-24s %12.1f → %12.1f allocs/op  (%.2fx, limit %.2fx)  %s",
				name, b.AllocsPerOp, c.AllocsPerOp, aRatio, allocsMax, aVerdict))
		}
	}
	switch {
	case len(missing) > 0:
		return report, fmt.Errorf("missing results: %s", strings.Join(missing, ", "))
	case len(regressed) > 0:
		return report, fmt.Errorf("regressed beyond %.2fx: %s", maxRatio, strings.Join(regressed, ", "))
	}
	return report, nil
}

// scenarioEntry is a raw BENCH_scenarios.json record. Entries are kept
// as generic maps so powbench can grow new fields without breaking the
// guard; only scenario, agents and the guarded metric are interpreted.
type scenarioEntry map[string]any

// key identifies a scenario entry the way powbench merges them.
func (e scenarioEntry) key() string {
	name, _ := e["scenario"].(string)
	agents, _ := e["agents"].(float64)
	return fmt.Sprintf("%s/%d", name, int(agents))
}

// metric pulls a numeric field out of the entry.
func (e scenarioEntry) metric(name string) (float64, bool) {
	v, ok := e[name].(float64)
	return v, ok
}

func loadScenarios(path string) ([]scenarioEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var es []scenarioEntry
	if err := json.Unmarshal(raw, &es); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, e := range es {
		if name, _ := e["scenario"].(string); name == "" {
			return nil, fmt.Errorf("%s: entry %d has no scenario name", path, i)
		}
	}
	return es, nil
}

// scenarioGuard holds the line on powbench's end-to-end numbers. Every
// baseline scenario must still be present in the candidate with the
// guarded metric no worse than maxRatio times the baseline value; a
// metric key absent from either side is a failure (a renamed field must
// update the guard, not evade it). Candidate-only scenarios are new
// coverage: reported NEW, never a failure.
func scenarioGuard(base, cand []scenarioEntry, metric string, maxRatio float64) ([]string, error) {
	candByKey := make(map[string]scenarioEntry, len(cand))
	for _, e := range cand {
		candByKey[e.key()] = e
	}
	var report []string
	var regressed, missing []string
	for _, b := range base {
		key := b.key()
		c, ok := candByKey[key]
		delete(candByKey, key)
		if !ok {
			report = append(report, fmt.Sprintf("%-24s MISSING from candidate", key))
			missing = append(missing, key)
			continue
		}
		bv, okB := b.metric(metric)
		cv, okC := c.metric(metric)
		if !okB || !okC {
			report = append(report, fmt.Sprintf("%-24s MISSING metric %q (baseline %v, candidate %v)", key, metric, okB, okC))
			missing = append(missing, key)
			continue
		}
		ratio := cv / bv
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "REGRESSED"
			regressed = append(regressed, key)
		}
		report = append(report, fmt.Sprintf("%-24s %12.0f → %12.0f %s  (%.2fx, limit %.2fx)  %s",
			key, bv, cv, metric, ratio, maxRatio, verdict))
	}
	fresh := make([]string, 0, len(candByKey))
	for key := range candByKey {
		fresh = append(fresh, key)
	}
	sort.Strings(fresh)
	for _, key := range fresh {
		report = append(report, fmt.Sprintf("%-24s NEW (no baseline yet)", key))
	}
	switch {
	case len(missing) > 0:
		return report, fmt.Errorf("scenario guard: missing results: %s", strings.Join(missing, ", "))
	case len(regressed) > 0:
		return report, fmt.Errorf("scenario guard: %s regressed beyond %.2fx: %s", metric, maxRatio, strings.Join(regressed, ", "))
	}
	return report, nil
}
