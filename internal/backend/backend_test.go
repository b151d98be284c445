package backend

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func testConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		Nodes:          16,
		CandidateCount: -1,
		Model:          power.TianheNode(),
		ModelError:     0.02,
		PowerJitter:    0.005,
		Class:          workload.ClassC,
		ProcsPerNode:   2,
		JobRampUp:      45 * time.Second,
		JobJitter:      0.03,
		IdleLoad:       node.Load{CPUUtil: 0.02},
		PMax:           units.KW(4),
		MeterNoise:     0.003,
		ControlPeriod:  time.Second,
		TickPeriod:     time.Second,
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := New("bogus", testConfig(1)); err == nil {
		t.Fatal("unknown backend name accepted")
	}
}

func TestNewSelectsByName(t *testing.T) {
	for _, name := range []string{"", "sim"} {
		b, err := New(name, testConfig(1))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if _, ok := b.(*Sim); !ok {
			t.Fatalf("New(%q) = %T, want *Sim", name, b)
		}
		b.Close()
	}
	b, err := New("daemon", testConfig(1))
	if err != nil {
		t.Fatalf("New(daemon): %v", err)
	}
	if _, ok := b.(*Daemon); !ok {
		t.Fatalf("New(daemon) = %T, want *Daemon", b)
	}
	b.Close()
}

// TestPlantRejectsWhatItCannotBuild: a plant whose cabinet layout cannot
// hold its nodes is refused by both constructors, before a daemon is
// booted, instead of panicking at construction or on the first tick.
func TestPlantRejectsWhatItCannotBuild(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"spread without cabinets": func(c *Config) { c.Placement, c.Cabinets = "spread", 0 },
		"10 nodes in 3 cabinets":  func(c *Config) { c.Nodes, c.Cabinets = 10, 3 },
	} {
		cfg := testConfig(1)
		mutate(&cfg)
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("%s: NewSim accepted the plant", name)
		}
		if d, err := NewDaemon(cfg); err == nil {
			d.Close()
			t.Errorf("%s: NewDaemon accepted the plant", name)
		}
	}
}

func TestStartTwiceRejected(t *testing.T) {
	b, err := NewSim(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	noop := func(time.Duration) {}
	if err := b.Start(noop); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(noop); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestTraitsMatchAcrossBackends(t *testing.T) {
	s, err := NewSim(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, dt := fmt.Sprintf("%+v", s.Traits()), fmt.Sprintf("%+v", d.Traits())
	if st != dt {
		t.Errorf("traits differ:\nsim    %s\ndaemon %s", st, dt)
	}
}

// TestSimDaemonCycleEquivalence drives a short seeded run on both
// backends with an identical toy control law and asserts cycle-by-cycle
// identity: the same sensed readings arrive and the same commanded
// levels are in force on the plant at every control instant.
func TestSimDaemonCycleEquivalence(t *testing.T) {
	const cycles = 30
	type cycleLog struct {
		meter    units.Watts
		readings string
	}
	run := func(b Backend) []cycleLog {
		t.Helper()
		var logs []cycleLog
		control := func(now time.Duration) {
			p := b.ReadMeter()
			rs := b.Sense(now)
			sum := ""
			for _, r := range rs {
				sum += fmt.Sprintf("%+v|", r)
			}
			logs = append(logs, cycleLog{meter: p, readings: sum})
			// Throttle even nodes on even cycles, restore on odd — forces
			// wire commands every cycle on the daemon backend.
			lvl := 0
			if len(logs)%2 == 1 {
				lvl = 6
			}
			for _, r := range rs {
				if int(r.ID)%2 == 0 {
					if err := b.SetNodeLevel(r.ID, lvl); err != nil {
						t.Errorf("SetNodeLevel(%d): %v", r.ID, err)
					}
				}
			}
		}
		if err := b.Start(control); err != nil {
			t.Fatal(err)
		}
		if err := b.RunUntil(cycles * time.Second); err != nil {
			t.Fatal(err)
		}
		return logs
	}

	s, err := NewSim(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	simLogs := run(s)

	d, err := NewDaemon(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dLogs := run(d)

	if len(simLogs) != len(dLogs) {
		t.Fatalf("cycle counts differ: sim %d, daemon %d", len(simLogs), len(dLogs))
	}
	for i := range simLogs {
		if simLogs[i].meter != dLogs[i].meter {
			t.Fatalf("cycle %d: meter sim %v, daemon %v", i, simLogs[i].meter, dLogs[i].meter)
		}
		if simLogs[i].readings != dLogs[i].readings {
			t.Fatalf("cycle %d: readings differ\nsim    %s\ndaemon %s",
				i, simLogs[i].readings, dLogs[i].readings)
		}
	}
	if st := d.Status(); st.SamplesReceived == 0 || st.CommandAcks == 0 {
		t.Errorf("daemon transport unused: %+v", st)
	}
}
