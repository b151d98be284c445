package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// spec mirrors the parts of BENCHMARK.json the program must agree with.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeOptions() options {
	return options{seed: 1, episodes: 5, small: true, refuse: -1, setups: 1, probe: 200 * time.Microsecond}
}

// TestVocabularyMatchesSpec holds the program's workload and metric names,
// units and directions to BENCHMARK.json, in order.
func TestVocabularyMatchesSpec(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %v, the program's default window is %v", s.RunSeconds, runSeconds)
	}
	ws := workloads(false)
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(got), kind, len(want))
		}
		for i, def := range want {
			if got[i].Name != def.name || got[i].Unit != def.unit || got[i].Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the program %v", kind, i, got[i], def)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestSmoke runs 32-agent versions of all four workloads, untraced and
// traced, and checks that every episode verifies and every named metric
// comes out exactly once, finite and with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(true) {
		w := w
		for _, traced := range []bool{false, true} {
			o := smokeOptions()
			o.trace = traced
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, err := runWorkload(&w, o)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < o.episodes {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d: %s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Error)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.name]
				if !ok {
					t.Errorf("%s: metric %s missing", w.name, def.name)
					continue
				}
				if m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v %q, want a finite value in %s", w.name, def.name, m.Value, m.Unit, def.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, def.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat("out/" + w.name + ".trace.jsonl"); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestVerifierBites gives one agent an Apply that refuses: its commanded
// level never takes, so episodes must fail and the command must exit
// non-zero.
func TestVerifierBites(t *testing.T) {
	w := workloads(true)[0]
	o := smokeOptions()
	o.refuse = 7
	res, err := runWorkload(&w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 {
		t.Errorf("refusing agent went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if code := runOne(&w, o); code == 0 {
		t.Error("exit status 0 with a refusing agent")
	}
}

// TestEmptyRunReportsZero: a run that fails before its first episode ends
// has no segments; its timing metrics read 0 and the failure is reported,
// instead of a panic that would skip the rig's teardown.
func TestEmptyRunReportsZero(t *testing.T) {
	w := workloads(true)[0]
	d := &driver{w: &w}
	if r, tp := d.reactionP50(), d.throughput(); r != 0 || tp != 0 {
		t.Errorf("empty run: reaction %v, throughput %v, want 0 and 0", r, tp)
	}
	if code := run([]string{"-workload", w.name, "-seconds", "0"}); code != 2 {
		t.Errorf("-seconds 0: exit status %d, want 2", code)
	}
}
