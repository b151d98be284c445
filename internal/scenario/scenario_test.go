package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/proptest"
)

// marshalTrace renders a run's records the way the export path does —
// the byte-identity witness for determinism.
func marshalTrace(t *testing.T, recs []CycleRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// -update rewrites testdata/ from the current run:
//
//	go test ./internal/scenario -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFlashCrowdTrace pins Algorithm 1's decisions over a scaled
// flash crowd, cycle by cycle, across commits: the trace is deterministic
// in (scenario, seed), so any drift in classification, selection or
// actuation shows up here as a byte difference.
func TestGoldenFlashCrowdTrace(t *testing.T) {
	res, err := Run(FlashCrowd().Scaled(6, 40), 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records
	got := marshalTrace(t, recs)
	path := filepath.Join("testdata", "scenario_flash_crowd.jsonl")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flash-crowd trace drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}

	// Round-trip: every line decodes back to the source record.
	lines := strings.Split(strings.TrimSpace(string(got)), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("lines = %d, want %d", len(lines), len(recs))
	}
	for i, line := range lines {
		var r CycleRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.Cycle != recs[i].Cycle || r.State != recs[i].State ||
			len(r.Nodes) != len(recs[i].Nodes) || len(r.Actions) != len(recs[i].Actions) {
			t.Errorf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestScenarioDeterminism: every scenario generator yields a
// byte-identical trace for the same seed, and a different trace for a
// different seed.
func TestScenarioDeterminism(t *testing.T) {
	for _, sc := range All() {
		sc := sc.Scaled(12, 90)
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			a, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			ba, bb := marshalTrace(t, a.Records), marshalTrace(t, b.Records)
			if !bytes.Equal(ba, bb) {
				t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(ba), len(bb))
			}
			c, err := Run(sc, 43)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(ba, marshalTrace(t, c.Records)) {
				t.Fatal("different seeds produced byte-identical traces")
			}
			// The script the open-loop driver replays is the same one the
			// in-process run consumed.
			s1, s2 := sc.Script(42), sc.Script(42)
			j1, _ := json.Marshal(s1)
			j2, _ := json.Marshal(s2)
			if !bytes.Equal(j1, j2) {
				t.Fatal("Script is not deterministic")
			}
		})
	}
}

// TestAlgorithmOnePropertiesOverEveryScenario: the Algorithm 1 invariant
// checkers run as properties over every scenario's trace, across seeds.
func TestAlgorithmOnePropertiesOverEveryScenario(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			small := sc.Scaled(16, 120)
			proptest.MustCheck(t, sc.Name, proptest.Config{NumTrials: 8, Seed: 1}, func(g *proptest.Generator) error {
				res, err := Run(small, g.Seed())
				if err != nil {
					return err
				}
				return CheckAlgorithmOne(res.Records, small.Tg)
			})
		})
	}
}

// TestScenariosExerciseTheCap: each scenario at library scale actually
// engages the control loop — the trace leaves steady green and the
// scripted events show up in the summary.
func TestScenariosExerciseTheCap(t *testing.T) {
	if testing.Short() {
		t.Skip("library-scale runs skipped in short mode")
	}
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckAlgorithmOne(res.Records, sc.Tg); err != nil {
				t.Fatal(err)
			}
			s := res.Summary
			if s.Degrades == 0 {
				t.Errorf("%s: trace never degraded a node (summary %+v)", sc.Name, s)
			}
			if s.YellowCycles == 0 && s.RedCycles == 0 {
				t.Errorf("%s: trace never left green", sc.Name)
			}
			if s.MaxPowerW <= 0 {
				t.Errorf("%s: max power %v", sc.Name, s.MaxPowerW)
			}
			pow := res.Obs.Histogram("scenario_power_w")
			if pow.Count() != int64(sc.Cycles) {
				t.Errorf("%s: power histogram holds %d cycles, want %d", sc.Name, pow.Count(), sc.Cycles)
			}
			if lat := res.Obs.Histogram("scenario_cycle_micros"); lat.Count() != int64(sc.Cycles) {
				t.Errorf("%s: latency histogram holds %d cycles, want %d", sc.Name, lat.Count(), sc.Cycles)
			}
			switch sc.Name {
			case "thermal-emergency":
				if s.PeakTempC <= sc.Thermal.AmbientC {
					t.Errorf("thermal scenario never warmed up: peak %.1f°C", s.PeakTempC)
				}
				if s.FailureMultiplier <= 0 {
					t.Errorf("failure multiplier %v", s.FailureMultiplier)
				}
			case "reconnect-herd", "rolling-upgrade":
				sawOffline := false
				for _, r := range res.Records {
					if r.Online < sc.Agents {
						sawOffline = true
						break
					}
				}
				if !sawOffline {
					t.Errorf("%s: no cycle ever had offline nodes", sc.Name)
				}
			case "flash-crowd":
				if s.RedEntries == 0 && s.BreachCycles == 0 {
					t.Errorf("flash crowd never stressed P_H (summary %+v)", s)
				}
			case "manager-failover":
				if s.FailoverCycle <= 0 {
					t.Errorf("failover scenario recorded no failover cycle (summary %+v)", s)
				}
				if s.RedEntries == 0 {
					t.Errorf("failover spike never entered red (summary %+v)", s)
				}
				// The swap lands while the fleet is still capped: the
				// replacement inherits below-max levels it never commanded.
				inherited := false
				for _, n := range res.Records[s.FailoverCycle].Nodes {
					if n.Level < n.MaxLevel {
						inherited = true
						break
					}
				}
				if !inherited {
					t.Errorf("manager swapped over an uncapped fleet (cycle %d)", s.FailoverCycle)
				}
				// No node may end the run orphaned at the red floor: the
				// replacement adopts the inherited levels, so once greens
				// accrue the restore path lifts the whole fleet back up.
				for _, n := range res.Records[len(res.Records)-1].Nodes {
					if n.Level == 0 {
						t.Errorf("node %d orphaned at the floor after failover (max %d)",
							n.ID, n.MaxLevel)
					}
				}
				if s.Restores == 0 {
					t.Errorf("no restores after failover (summary %+v)", s)
				}
			}
		})
	}
}

// TestCheckAlgorithmOneCatchesViolations: the checker rejects hand-built
// traces that break each invariant.
func TestCheckAlgorithmOneCatchesViolations(t *testing.T) {
	base := func() CycleRecord {
		return CycleRecord{
			Cycle: 0, PowerW: 100, PLW: 80, PHW: 90, State: "yellow", Online: 2,
			Nodes: []NodeRecord{
				{ID: 0, Level: 3, MaxLevel: 6},
				{ID: 1, Level: 0, MaxLevel: 6, AtLowest: true},
			},
		}
	}
	cases := []struct {
		name string
		recs []CycleRecord
	}{
		{"duplicate command", func() []CycleRecord {
			r := base()
			r.Actions = []ActionRecord{{Node: 0, Level: 2}, {Node: 0, Level: 1}}
			return []CycleRecord{r}
		}()},
		{"command to absent node", func() []CycleRecord {
			r := base()
			r.Actions = []ActionRecord{{Node: 9, Level: 2}}
			return []CycleRecord{r}
		}()},
		{"degrade-free PH breach", func() []CycleRecord {
			r := base()
			r.Actions = nil
			return []CycleRecord{r}
		}()},
		{"red skips a node", func() []CycleRecord {
			r := base()
			r.State = "red"
			r.Actions = nil
			return []CycleRecord{r}
		}()},
		{"red not to floor", func() []CycleRecord {
			r := base()
			r.State = "red"
			r.Actions = []ActionRecord{{Node: 0, Level: 1}}
			return []CycleRecord{r}
		}()},
		{"yellow two-step degrade", func() []CycleRecord {
			r := base()
			r.Actions = []ActionRecord{{Node: 0, Level: 1}}
			return []CycleRecord{r}
		}()},
		{"yellow targets floor node", func() []CycleRecord {
			r := base()
			r.Actions = []ActionRecord{{Node: 1, Level: -1}}
			return []CycleRecord{r}
		}()},
		{"restore before Tg", func() []CycleRecord {
			r := base()
			r.PowerW, r.State = 70, "green"
			r.Actions = []ActionRecord{{Node: 0, Level: 4}}
			return []CycleRecord{r}
		}()},
		{"restore not one step", func() []CycleRecord {
			g1 := base()
			g1.PowerW, g1.State, g1.Actions = 70, "green", nil
			g2 := base()
			g2.Cycle, g2.PowerW, g2.State = 1, 70, "green"
			g2.Actions = []ActionRecord{{Node: 0, Level: 6}}
			return []CycleRecord{g1, g2}
		}()},
		{"unknown state", func() []CycleRecord {
			r := base()
			r.State = "purple"
			r.Actions = nil
			r.PowerW = 85
			return []CycleRecord{r}
		}()},
	}
	for _, tc := range cases {
		if err := CheckAlgorithmOne(tc.recs, 2); err == nil {
			t.Errorf("%s: checker accepted an invalid trace", tc.name)
		}
	}
	// And a clean trace passes.
	ok := base()
	ok.Actions = []ActionRecord{{Node: 0, Level: 2}}
	if err := CheckAlgorithmOne([]CycleRecord{ok}, 2); err != nil {
		t.Errorf("checker rejected a valid trace: %v", err)
	}
	if err := CheckAlgorithmOne(nil, 0); err == nil {
		t.Error("checker accepted non-positive Tg")
	}
}

func TestByNameAndValidate(t *testing.T) {
	if _, err := ByName("diurnal"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
	for _, sc := range All() {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		thr := sc.Thresholds(power.TianheNode())
		if err := thr.Validate(); err != nil {
			t.Errorf("%s thresholds: %v", sc.Name, err)
		}
	}
	bad := Diurnal()
	bad.Tg = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted Tg=0")
	}
	badFrac := ManagerFailover()
	badFrac.FailoverFrac = 1.5
	if err := badFrac.Validate(); err == nil {
		t.Error("Validate accepted FailoverFrac ≥ 1")
	}
	if _, err := Run(bad, 1); err == nil {
		t.Error("Run accepted an invalid scenario")
	}
	sc := Diurnal().Scaled(8, 40)
	if sc.Agents != 8 || sc.Cycles != 40 {
		t.Errorf("Scaled = %d×%d", sc.Agents, sc.Cycles)
	}
	if sc = Diurnal().Scaled(0, 0); sc.Agents != 32 || sc.Cycles != 288 {
		t.Errorf("Scaled(0,0) changed dimensions: %d×%d", sc.Agents, sc.Cycles)
	}
}
