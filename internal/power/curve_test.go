package power

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/procfs"
	"repro/internal/proptest"
	"repro/internal/units"
)

// refInstant is formula (1) as Model.Instant spelled it before the model
// compiled to a table — straight from the device models, in this order. The
// property below holds both today's Model and the Curve to its bits.
func refInstant(m Model, cpuUtil, memFrac, nicFrac float64, level int) units.Watts {
	cpuUtil = units.Clamp(cpuUtil, 0, 1)
	memFrac = units.Clamp(memFrac, 0, 1)
	nicFrac = units.Clamp(nicFrac, 0, 1)
	p := m.Idle.At(level, m.CPU.Levels())
	p += units.Watts(cpuUtil * float64(m.CPU.DynMax(level)))
	p += units.Watts(memFrac * float64(m.Mem.DynMax))
	p += units.Watts(nicFrac * float64(m.NIC.DynMax))
	return p
}

// refEstimate is Model.Estimate's derivation of the fractions, likewise.
func refEstimate(m Model, d procfs.Delta, level int) units.Watts {
	var memFrac float64
	if d.MemTotal > 0 {
		memFrac = float64(d.MemUsed) / float64(d.MemTotal)
	}
	var nicFrac float64
	if sec := d.Interval.Seconds(); sec > 0 {
		nicFrac = float64(d.NICBytes) / (sec * float64(m.NIC.Bandwidth))
	}
	return refInstant(m, d.CPUUtil, memFrac, nicFrac, level)
}

// drawModel draws one of three shapes — the 10-level Tianhe node, the
// 5-level node of manager/hetero_test.go, a 1-level CPU — with seeded
// coefficients.
func drawModel(g *proptest.Generator) Model {
	m := TianheNode()
	switch g.Intn(3) {
	case 1:
		m.CPU.Freqs = m.CPU.Freqs[:5]
	case 2:
		m.CPU.Freqs = m.CPU.Freqs[7:8]
	}
	m.CPU.Sockets = g.IntRange(1, 4)
	m.CPU.DynMaxPerSocket = units.Watts(g.Range(10, 120))
	m.CPU.VoltMin = g.Range(0.6, 1)
	m.CPU.VoltMax = m.CPU.VoltMin + g.Range(0, 0.5)
	m.Idle = device.IdleCurve{Min: units.Watts(g.Range(20, 100))}
	m.Idle.Max = m.Idle.Min + units.Watts(g.Range(0, 80))
	m.Mem.DynMax = units.Watts(g.Range(0, 90))
	m.NIC = device.NIC{Bandwidth: units.Bytes(g.Range(1e8, 2e10)), DynMax: units.Watts(g.Range(0, 40))}
	return m
}

// drawDelta draws an interval whose fractions fall inside and outside
// [0,1], with Interval == 0 and MemTotal == 0 among the cases.
func drawDelta(g *proptest.Generator, m Model) procfs.Delta {
	d := procfs.Delta{
		Interval: time.Duration(g.Range(1e6, 2e9)),
		CPUUtil:  g.Range(-0.5, 1.5),
		MemTotal: m.Mem.TotalBytes,
		MemUsed:  uint64(g.Range(0, 1.5*float64(m.Mem.TotalBytes))),
		NICBytes: uint64(g.Range(0, 3e10)),
	}
	if g.Bool(0.15) {
		d.Interval = 0
	}
	if g.Bool(0.15) {
		d.MemTotal = 0
	}
	return d
}

// TestCurveEqualsModelExactly: the compiled evaluation is Model.Instant and
// Model.Estimate bit for bit — and both are the pre-table arithmetic — at
// every level from one below the table to one above it.
func TestCurveEqualsModelExactly(t *testing.T) {
	same := func(a, b units.Watts) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	proptest.MustCheck(t, "curve-equals-model", proptest.Config{NumTrials: 400, Seed: 21_01}, func(g *proptest.Generator) error {
		m := drawModel(g)
		if err := m.Validate(); err != nil {
			return fmt.Errorf("drew an invalid model: %v", err)
		}
		c := m.Compile()
		for i := 0; i < 8; i++ {
			d := drawDelta(g, m)
			f := Load{g.Range(-0.5, 1.5), g.Range(-0.5, 1.5), g.Range(-0.5, 1.5)}
			for l := -1; l <= m.Levels(); l++ {
				ref := refInstant(m, f.CPU, f.Mem, f.NIC, l)
				if got, tab := m.Instant(f.CPU, f.Mem, f.NIC, l), c.At(f, l); !same(got, ref) || !same(tab, ref) {
					return fmt.Errorf("%d levels, level %d, load %+v: Instant %v, Curve.At %v, reference %v", m.Levels(), l, f, got, tab, ref)
				}
				ref = refEstimate(m, d, l)
				if got, tab := m.Estimate(d, l), c.At(c.Load(d), l); !same(got, ref) || !same(tab, ref) {
					return fmt.Errorf("%d levels, level %d, delta %+v: Estimate %v, Curve %v, reference %v", m.Levels(), l, d, got, tab, ref)
				}
				if b := m.EstimateBreakdown(d, l); !same(b.Total(), ref) {
					return fmt.Errorf("%d levels, level %d: breakdown total %v, reference %v", m.Levels(), l, b.Total(), ref)
				}
			}
		}
		return nil
	})
}

// TestCurveIsCompiledFromAFinishedModel: editing the Model afterwards — as
// the heterogeneous experiments do — leaves a compiled Curve unchanged.
func TestCurveIsCompiledFromAFinishedModel(t *testing.T) {
	m := TianheNode()
	c := m.Compile()
	f := Load{0.9, 0.5, 0.1}
	before := c.At(f, 7)
	m.CPU.Freqs[7] = units.GHz(1.7)
	m.CPU.DynMaxPerSocket, m.Mem.DynMax = 40, 30
	if got := c.At(f, 7); got != before {
		t.Errorf("compiled estimate moved with the model: %v → %v", before, got)
	}
	if m.Compile().At(f, 7) == before {
		t.Error("recompiling the edited model changed nothing: the edit was not visible at all")
	}
}
