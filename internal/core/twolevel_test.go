package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/power"
	"repro/internal/procfs"
	"repro/internal/units"
)

func reading(id, level int, util float64) manager.AgentReading {
	return manager.AgentReading{
		ID: node.ID(id), Level: level, MaxLevel: 9,
		Delta: procfs.Delta{
			Interval: time.Second, CPUUtil: util,
			MemUsed: 24 << 30, MemTotal: 48 << 30,
		},
	}
}

func newTwoLevel(total units.Watts, div budget.Division) *twoLevel {
	return &twoLevel{total: total, division: div, model: power.TianheNode()}
}

// TestTwoLevelConfigValidation: the two-level baseline refuses a zero
// budget, an unknown division and a zero model.
func TestTwoLevelConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.PMax = 0 },
		func(c *Config) { c.TwoLevelDivision = "bogus" },
		func(c *Config) { c.Model = power.Model{} },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		cfg.Controller = "twolevel"
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid two-level config accepted", i)
		}
	}
}

func TestTwoLevelLevelFor(t *testing.T) {
	m := power.TianheNode()
	r := reading(0, 9, 0.9)
	// A generous budget keeps the top level.
	if got := levelFor(m, r, 1000); got != 9 {
		t.Errorf("generous budget → level %d, want 9", got)
	}
	// An impossible budget floors.
	if got := levelFor(m, r, 10); got != 0 {
		t.Errorf("impossible budget → level %d, want 0", got)
	}
	// The returned level's prediction actually fits (when feasible).
	for _, w := range []units.Watts{200, 250, 300, 350} {
		l := levelFor(m, r, w)
		if l > 0 && m.Estimate(r.Delta, l) > w {
			t.Errorf("levelFor(%v) = %d predicts %v over budget", w, l, m.Estimate(r.Delta, l))
		}
		// And it is maximal: one level up must not fit.
		if l < 9 && m.Estimate(r.Delta, l+1) <= w {
			t.Errorf("levelFor(%v) = %d not maximal", w, l)
		}
	}
}

type recordActuator struct {
	levels map[node.ID]int
	fail   bool
}

func (a *recordActuator) SetNodeLevel(id node.ID, level int) error {
	if a.fail {
		return errors.New("refused")
	}
	if a.levels == nil {
		a.levels = map[node.ID]int{}
	}
	a.levels[id] = level
	return nil
}

func TestTwoLevelUniformDivisionEnforces(t *testing.T) {
	c := newTwoLevel(units.KW(1), budget.Uniform)
	// 4 busy nodes share 1 kW → 250 W each; a busy Tianhe node needs a
	// low-ish level to fit 250 W.
	readings := []manager.AgentReading{
		reading(0, 9, 0.9), reading(1, 9, 0.9), reading(2, 9, 0.9), reading(3, 9, 0.9),
	}
	act := &recordActuator{}
	c.cycle(readings, act)
	if len(act.levels) != 4 {
		t.Fatalf("commands = %v", act.levels)
	}
	for id, l := range act.levels {
		if est := c.model.Estimate(readings[int(id)].Delta, l); est > 250 {
			t.Errorf("node %d at level %d draws %v over its 250 W share", id, l, est)
		}
	}
	if st := c.stats; st.Cycles != 1 || st.Moves != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTwoLevelProportionalFavoursBusyNodes(t *testing.T) {
	c := newTwoLevel(units.KW(1), budget.Proportional)
	readings := []manager.AgentReading{
		reading(0, 9, 0.95), // busy
		reading(1, 9, 0.02), // idle
		reading(2, 9, 0.95),
		reading(3, 9, 0.02),
	}
	act := &recordActuator{}
	c.cycle(readings, act)
	busyLevel, idleLevel := act.levels[0], act.levels[1]
	if _, moved := act.levels[0]; !moved {
		busyLevel = 9
	}
	if _, moved := act.levels[1]; !moved {
		idleLevel = 9
	}
	if busyLevel < idleLevel {
		t.Errorf("proportional division gave busy node level %d below idle node %d", busyLevel, idleLevel)
	}
}

func TestTwoLevelStarvationCounted(t *testing.T) {
	c := newTwoLevel(50, budget.Uniform) // 12.5 W/node: infeasible
	act := &recordActuator{}
	c.cycle([]manager.AgentReading{reading(0, 9, 0.9), reading(1, 9, 0.9),
		reading(2, 9, 0.9), reading(3, 9, 0.9)}, act)
	if st := c.stats; st.StarvedNodes != 4 {
		t.Errorf("starved = %d, want 4", st.StarvedNodes)
	}
}

func TestTwoLevelNoCommandWhenAlreadyAtTarget(t *testing.T) {
	c := newTwoLevel(units.MW(1), budget.Uniform)
	act := &recordActuator{}
	c.cycle([]manager.AgentReading{reading(0, 9, 0.9)}, act)
	if len(act.levels) != 0 {
		t.Errorf("issued redundant commands: %v", act.levels)
	}
}

func TestTwoLevelActuationErrorNotCountedAsMove(t *testing.T) {
	c := newTwoLevel(units.KW(1), budget.Uniform)
	act := &recordActuator{fail: true}
	c.cycle([]manager.AgentReading{reading(0, 9, 0.9), reading(1, 9, 0.9),
		reading(2, 9, 0.9), reading(3, 9, 0.9)}, act)
	if st := c.stats; st.Moves != 0 {
		t.Errorf("failed actuations counted: %+v", st)
	}
}

func TestTwoLevelEmptyReadings(t *testing.T) {
	c := newTwoLevel(1000, budget.Uniform)
	c.cycle(nil, &recordActuator{})
	if c.stats.Cycles != 1 {
		t.Error("cycle not counted")
	}
}

func TestTwoLevelSetBudget(t *testing.T) {
	c := newTwoLevel(1000, budget.Uniform)
	c.setBudget(2000)
	c.setBudget(0) // ignored
	act := &recordActuator{}
	c.cycle([]manager.AgentReading{reading(0, 9, 0.9)}, act)
	// 2 kW for one node: no throttling needed.
	if len(act.levels) != 0 {
		t.Errorf("commands = %v", act.levels)
	}
}
