// Command bench is the capping plane's one benchmark: four closed-loop
// workloads over real managerd/fedd servers and real passive agentd agents
// on fault-free faultnet, a per-layer table from a traced run and isolated
// probes, and a verifier for every episode. README.md defines every term.
//
//	go run -C bench . -workload flat-spike -seed 1            one workload, end to end
//	go run -C bench . -workload flat-spike -seed 1 -trace 1   its per-layer table
//	go run -C bench . -all [-trace 1]                         every workload, end to end [and per layer]
//	go run -C bench . -probes                                 the isolated probes alone
//	go run -C bench . -check-repeat                           each workload twice, compared within the bounds
//
// The benchmark driver appends -seconds <run_seconds of BENCHMARK.json>; that
// value is also the default and the only window results are comparable at.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	runSeconds = 20 // the measured window; BENCHMARK.json's run_seconds
	setUps     = 5  // set-ups per end-to-end run; setup_s is their median
)

// options select and size one invocation.
type options struct {
	seed     int64
	seconds  float64
	episodes int // > 0: measure this many episodes instead of seconds (the smoke test)
	small    bool
	trace    bool
	refuse   int // global agent index whose Apply refuses; -1 for none
	setups   int // set-ups per run; setup_s is their median
	probe    time.Duration
}

// result is everything one run of one workload reports. The driver's
// contract line is cut from it; the full object precedes it.
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Episodes  int               `json:"episodes"`
	Rounds    int               `json:"rounds"`
	Samples   int               `json:"reaction_samples"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is what makes two results comparable.
type host struct {
	Cores           int    `json:"cores"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	InjectedDelayNS int    `json:"injected_delay_ns"` // always 0: latencies are processor time only
	Loop            string `json:"loop"`
}

func hostFacts() host {
	h := host{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Loop: "closed, 1 driver goroutine",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// setUp boots a workload's rig and warms it up; the time it takes is
// setup_s. The caller owns d.rig and must stop it.
func setUp(w *workload, seed int64, refuse, warm int) (*driver, error) {
	in := w.generate(seed)
	cfg, sibLo, sibHi := w.plan(in)
	cfg.refuse = refuse
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	cfg.dir = dir
	rg, err := buildRig(cfg)
	if err != nil {
		return nil, err
	}
	d := newDriver(w, in, rg, sibLo, sibHi)
	if err := d.warmup(warm); err != nil {
		rg.stop()
		return nil, err
	}
	return d, nil
}

// measure runs episodes for the given time (or count) and accumulates
// them in d.
func (d *driver) measure(seconds float64, episodes int) error {
	start := time.Now()
	for n := 0; ; n++ {
		if episodes > 0 && n >= episodes {
			return nil
		}
		if episodes == 0 && time.Since(start).Seconds() >= seconds {
			return nil
		}
		d.tr.setEpisode(n)
		if err := d.episode(true); err != nil {
			d.attempted++
			d.failed++
			return err
		}
	}
}

// reset clears the measurement state, so that a traced window counts
// nothing from the warm-up or the untraced window before it.
func (d *driver) reset() {
	d.rounds, d.roundDur, d.epRounds, d.reactions = 0, nil, nil, nil
	d.acc = traceAcc{}
}

// traced measures a window with the tracer on and returns the
// workload-derived layer metrics of that window.
func (d *driver) traced(seconds float64, episodes int) (map[string]float64, error) {
	d.reset()
	d.tr = newTracer()
	hook := func() { d.tr.instant("agent_apply") }
	d.rig.onApply.Store(&hook)
	defer d.rig.onApply.Store(nil)
	if d.rig.cfg.journal {
		d.acc.logPath = filepath.Join(d.rig.cfg.dir, "journal.json.log")
	}
	before := readCounters(d.rig)
	if err := d.measure(seconds, episodes); err != nil {
		return nil, err
	}
	return layerMetrics(d, before, readCounters(d.rig)), nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// The host this runs on is a shared virtual machine whose speed sags for
// seconds at a time, by 10 to 30 %, and never exceeds its quiet speed. A
// figure over the whole window therefore measures the neighbours as much as
// the program. Each timing metric is instead taken per segment, over
// segments equal consecutive parts of the window, and reported as the mean
// of the best fifth of them: the stretches the host disturbed least.
const segments = 20

// quietMean is the mean of the best fifth of the per-segment values, and 0
// when there are none (a run that failed before its first episode ended).
func quietMean(perSegment []float64, lowerIsBetter bool) float64 {
	if len(perSegment) == 0 {
		return 0
	}
	s := append([]float64(nil), perSegment...)
	sort.Float64s(s)
	keep := max(1, len(s)/5)
	best := s[:keep]
	if !lowerIsBetter {
		best = s[len(s)-keep:]
	}
	sum := 0.0
	for _, v := range best {
		sum += v
	}
	return sum / float64(keep)
}

// cut returns the bounds of part i of k of a sequence of n.
func cut(n, k, i int) (from, to int) { return i * n / k, (i + 1) * n / k }

// reactionP50 is the median reaction of a segment, averaged over the quiet
// segments: the median the plane shows while the host leaves it alone, not
// the median of every sample of the window.
func (d *driver) reactionP50() float64 {
	k := min(segments, len(d.reactions))
	per := make([]float64, k)
	for i := range per {
		from, to := cut(len(d.reactions), k, i)
		per[i] = median(d.reactions[from:to])
	}
	return quietMean(per, true)
}

// throughput is agents × rounds ÷ seconds of round time of a segment of
// whole episodes, over the quiet segments.
func (d *driver) throughput() float64 {
	k := min(segments, len(d.epRounds))
	per := make([]float64, k)
	for i := range per {
		from, to := cut(len(d.epRounds), k, i)
		first := 0
		if from > 0 {
			first = d.epRounds[from-1]
		}
		last := d.epRounds[to-1]
		var sum time.Duration
		for _, dur := range d.roundDur[first:last] {
			sum += dur
		}
		per[i] = float64((last-first)*d.w.agents()) / sum.Seconds()
	}
	return quietMean(per, false)
}

// runWorkload is one run: the end-to-end metrics from an untraced window,
// or with o.trace the per-layer table from a traced window and the probes.
func runWorkload(w *workload, o options) (*result, error) {
	res := &result{
		Workload: w.name, Why: w.why, Host: hostFacts(), Seed: o.seed, Traced: o.trace,
		Metrics: map[string]metric{},
	}
	// The benchmark contract asks for setup_s as the median of several
	// set-ups in one run; the last rig is the one measured.
	var setups []float64
	var d *driver
	for len(setups) < o.setups {
		if d != nil {
			d.rig.stop()
		}
		t := time.Now()
		var err error
		if d, err = setUp(w, o.seed, o.refuse, warmupEpisodes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.rig.stop()

	if o.trace {
		traceRun(d, o, res)
	} else {
		endToEndRun(d, o, res, median(setups))
	}
	return res, nil
}

// conclude records how a run ended: err is whatever stopped it or failed
// an end-of-run check.
func (d *driver) conclude(res *result, err error) {
	res.Episodes, res.Rounds, res.Samples = len(d.epRounds), d.rounds, len(d.reactions)
	res.Attempted, res.Failed = d.attempted, d.failed
	if d.firstErr != nil {
		res.Error = d.firstErr.Error()
	} else if err != nil {
		res.Error = err.Error()
	}
	res.Correct = err == nil && d.failed == 0 && d.attempted > 0
}

// memory returns, in MiB, what the running plane holds once garbage is
// collected (heap spans, goroutine stacks and span metadata in use) and
// Sys, everything the process has obtained from the system so far. Sys also
// counts heap the collector has emptied, so it shows a peak or a garbage
// habit the first hides, and depends on when the collector last ran.
func memory() (inUse, sys float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse+ms.StackInuse+ms.MSpanInuse+ms.MCacheInuse) / (1 << 20), float64(ms.Sys) / (1 << 20)
}

// endToEndRun measures an untraced window and reports the end-to-end
// metrics.
func endToEndRun(d *driver, o options, res *result, setupS float64) {
	err := d.measure(o.seconds, o.episodes)
	memMB, _ := memory()
	if err == nil {
		err = d.finish()
	}
	d.conclude(res, err)
	for i, v := range []float64{d.reactionP50(), d.throughput(), memMB, setupS} {
		res.Metrics[endToEnd[i].name] = metric{v, endToEnd[i].unit}
	}
}

// traceRun reports the per-layer table: a quarter of the time untraced, a
// quarter traced, then the probes on rigs of their own. A layer the
// workload never enters reports 0.
func traceRun(d *driver, o options, res *result) {
	w := d.w
	err := d.measure(o.seconds/4, o.episodes)
	untraced := d.throughput()
	sorted := append([]float64(nil), d.reactions...)
	sort.Float64s(sorted)
	p95 := quantile(sorted, 0.95)
	var layers map[string]float64
	if err == nil {
		layers, err = d.traced(o.seconds/4, o.episodes)
	}
	if err == nil {
		layers["trace.overhead_frac"] = 1 - ratio(d.throughput(), untraced)
		layers["managerd.reaction_ms_p95"] = p95
		_, layers["managerd.mem_sys_mb"] = memory()
		self, total, _ := d.tr.selfTimes()
		fmt.Fprintf(os.Stderr, "%s: %.1f%% of traced round time is outside any child span\n",
			w.name, 100*ratio(float64(self["round"]), float64(total["round"])))
		err = d.tr.write(filepath.Join("out", w.name+".trace.jsonl"), cycleTimelines(d.rig))
	}
	if err == nil {
		err = d.finish()
	}
	d.rig.stop()
	if err == nil {
		var probes map[string]float64
		probes, err = runProbes(o.probe, o.small, o.seed)
		for name, v := range probes {
			layers[name] = v
		}
	}
	d.conclude(res, err)
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{layers[def.name], def.unit}
	}
}

// contractLine is the last line the driver reads: exactly four keys.
func contractLine(res *result) string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	return string(b)
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: flat-spike, steady-green, tree-shift or ha-yellow")
	all := fs.Bool("all", false, "run every workload")
	seed := fs.Int64("seed", 1, "seed for per-agent utilisation, memory footprint and job assignment")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window; the benchmark driver passes run_seconds, and results at another length are not comparable")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced run and the probes; 0: the end-to-end metrics")
	probesOnly := fs.Bool("probes", false, "run the isolated probes alone")
	repeat := fs.Bool("check-repeat", false, "run each workload twice and fail if an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, refuse: -1, setups: setUps, probe: 100 * time.Millisecond}
	if o.trace {
		o.setups = 1 // a traced run does not report setup_s
	}
	ws := workloads(false)
	switch {
	case *probesOnly:
		m, err := runProbes(o.probe, false, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		out := map[string]metric{}
		for _, def := range perLayer {
			if v, ok := m[def.name]; ok {
				out[def.name] = metric{v, def.unit}
			}
		}
		b, _ := json.Marshal(struct {
			Host    host              `json:"host"`
			Metrics map[string]metric `json:"metrics"`
		}{hostFacts(), out})
		fmt.Println(string(b))
		return 0
	case *repeat:
		return checkRepeat(ws, *seed)
	case *all:
		// End to end first; with -trace 1 each workload's per-layer table
		// follows it.
		code := 0
		modes := []bool{false}
		if o.trace {
			modes = append(modes, true)
		}
		for _, w := range ws {
			for _, traced := range modes {
				res, err := runChild(w.name, *seed, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				b, _ := json.Marshal(res)
				fmt.Println(string(b))
				if !res.Correct {
					code = 1
				}
			}
		}
		return code
	}
	for i := range ws {
		if ws[i].name == *name {
			return runOne(&ws[i], o)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	fs.Usage()
	return 2
}

// runOne runs a workload and prints its result object and then, as the
// last line, the four-key object the driver reads.
func runOne(w *workload, o options) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	fmt.Println(contractLine(res))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d episodes failed: %s\n", w.name, res.Failed, res.Attempted, res.Error)
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own, as the benchmark
// driver does, so that no run inherits another's heap or goroutine
// descriptors, and returns the child's full result object.
func runChild(name string, seed int64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// A child whose episodes failed exits non-zero but still reports.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("no result from child: %v", runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// checkRepeat is ROADMAP item 1e: two runs of the same code must agree
// within the benchmark's own bounds, on the same number of cores.
func checkRepeat(ws []workload, seed int64) int {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var spec struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	code := 0
	for i := range ws {
		var runs [2]*result
		for j := range runs {
			if runs[j], err = runChild(ws[i].name, seed, false); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", ws[i].name, err)
				return 1
			}
			if !runs[j].Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", ws[i].name, runs[j].Error)
				code = 1
			}
		}
		if runs[0].Host.Cores != runs[1].Host.Cores {
			fmt.Fprintf(os.Stderr, "bench: core counts differ: %d vs %d\n", runs[0].Host.Cores, runs[1].Host.Cores)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := (b - a) / a
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict, code = "DIFFERS", 1
			}
			fmt.Printf("%-13s %-19s %12.4f %12.4f  %+6.1f%% (bound %2.0f%%)  %s\n",
				ws[i].name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
