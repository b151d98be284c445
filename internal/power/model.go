// Package power implements the sensing half of the paper's architecture:
// the node power profile model (formula 1), the facility power meter, the
// two-threshold green/yellow/red classification (§II.B), and the threshold
// learning rule P_H = 93%·P_peak, P_L = 84%·P_peak (§III.A).
package power

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/procfs"
	"repro/internal/units"
)

// Model is the per-node power profile model of §II.C. Given a node's device
// parameters it evaluates formula (1):
//
//	P(l) = P_idle(l) + Uti_CPU · Σ_x P_x(l)
//	     + Mem_used/Mem_total · P_mem(l)
//	     + Data_NIC/(τ·BW_NIC) · P_NIC(l)
type Model struct {
	CPU  device.CPU
	Mem  device.Memory
	NIC  device.NIC
	Idle device.IdleCurve
}

// TianheNode returns the profile model for the paper's testbed node.
func TianheNode() Model {
	return Model{
		CPU:  device.X5670(),
		Mem:  device.DDR3x12(),
		NIC:  device.TianheNIC(),
		Idle: device.TianheIdle(),
	}
}

// Validate checks all device sub-models.
func (m Model) Validate() error {
	if err := m.CPU.Validate(); err != nil {
		return err
	}
	if err := m.Mem.Validate(); err != nil {
		return err
	}
	if err := m.NIC.Validate(); err != nil {
		return err
	}
	return m.Idle.Validate()
}

// Levels returns the number of discrete power levels of the modelled node.
func (m Model) Levels() int { return m.CPU.Levels() }

// row is formula (1)'s four coefficients at one level.
type row struct{ idle, cpu, mem, nic units.Watts }

// row derives level's coefficients from the device models — the definition
// every tabulated row is filled from.
func (m Model) row(level int) row {
	return row{m.Idle.At(level, m.CPU.Levels()), m.CPU.DynMax(level), m.Mem.DynMax, m.NIC.DynMax}
}

// Load is a sampled interval's three operating fractions: Uti_CPU,
// Mem_used/Mem_total and Data_NIC/(τ·BW_NIC), as derived, not yet clamped.
type Load struct{ CPU, Mem, NIC float64 }

// LoadOf derives the fractions from a procfs interval delta, exactly as
// the profiling agent does on a live node: CPU utilisation from jiffy
// deltas, memory occupancy from meminfo, NIC fraction from byte counters
// over the sampling interval τ against the link bandwidth bw.
func LoadOf(d procfs.Delta, bw units.Bytes) Load {
	f := Load{CPU: d.CPUUtil}
	if d.MemTotal > 0 {
		f.Mem = float64(d.MemUsed) / float64(d.MemTotal)
	}
	if sec := d.Interval.Seconds(); sec > 0 {
		f.NIC = float64(d.NICBytes) / (sec * float64(bw))
	}
	return f
}

// clamped bounds each fraction to [0,1].
func (f Load) clamped() Load {
	return Load{units.Clamp(f.CPU, 0, 1), units.Clamp(f.Mem, 0, 1), units.Clamp(f.NIC, 0, 1)}
}

// terms is formula (1), term by term; its Total is the estimate.
func (r row) terms(f Load) Breakdown {
	f = f.clamped()
	return Breakdown{
		Idle: r.idle,
		CPU:  units.Watts(f.CPU * float64(r.cpu)),
		Mem:  units.Watts(f.Mem * float64(r.mem)),
		NIC:  units.Watts(f.NIC * float64(r.nic)),
	}
}

// Instant evaluates formula (1) from instantaneous operating fractions:
// cpuUtil is Uti_CPU ∈ [0,1], memFrac is Mem_used/Mem_total ∈ [0,1] and
// nicFrac is Data_NIC/(τ·BW_NIC) ∈ [0,1].
func (m Model) Instant(cpuUtil, memFrac, nicFrac float64, level int) units.Watts {
	return m.row(level).terms(Load{cpuUtil, memFrac, nicFrac}).Total()
}

// Estimate evaluates formula (1) from a procfs interval delta.
func (m Model) Estimate(d procfs.Delta, level int) units.Watts {
	return m.EstimateBreakdown(d, level).Total()
}

// Curve is a finished Model compiled for the sensing hot path: formula (1)
// is linear in the Load with coefficients that depend only on the level, so
// they are tabulated once, one row per level. It is a separate immutable
// value, not a cache inside Model, because Model is a plain struct callers
// edit after construction.
type Curve struct {
	rows []row
	bw   units.Bytes
}

// Compile tabulates the model.
func (m Model) Compile() Curve {
	c := Curve{rows: make([]row, m.Levels()), bw: m.NIC.Bandwidth}
	for l := range c.rows {
		c.rows[l] = m.row(l)
	}
	return c
}

// Load derives d's fractions against the compiled NIC bandwidth.
func (c Curve) Load(d procfs.Delta) Load { return LoadOf(d, c.bw) }

// At is Model.Instant read from the table, bit for bit; level is clamped
// into the table as the device models clamp it.
func (c Curve) At(f Load, level int) units.Watts {
	return c.rows[max(0, min(level, len(c.rows)-1))].terms(f).Total()
}

// Breakdown is formula (1) split into its four terms — the per-device
// attribution operators read when deciding *why* a node draws what it
// draws.
type Breakdown struct {
	Idle units.Watts // P_idle(l)
	CPU  units.Watts // Uti_CPU · Σ P_x(l)
	Mem  units.Watts // MemFrac · P_mem(l)
	NIC  units.Watts // NICFrac · P_NIC(l)
}

// Total sums the components in formula (1)'s order.
func (b Breakdown) Total() units.Watts { return b.Idle + b.CPU + b.Mem + b.NIC }

// String renders the attribution compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("idle %v + cpu %v + mem %v + nic %v = %v",
		b.Idle, b.CPU, b.Mem, b.NIC, b.Total())
}

// EstimateBreakdown evaluates formula (1) term by term from an interval
// delta.
func (m Model) EstimateBreakdown(d procfs.Delta, level int) Breakdown {
	return m.row(level).terms(LoadOf(d, m.NIC.Bandwidth))
}

// MaxPower returns P_i, the node's theoretical maximal consumption: top
// level with every device saturated. Σ over nodes gives the paper's P_thy.
func (m Model) MaxPower() units.Watts {
	top := m.CPU.Levels() - 1
	return m.Instant(1, 1, 1, top)
}

// MinPower returns the node's floor: lowest level, idle.
func (m Model) MinPower() units.Watts {
	return m.Instant(0, 0, 0, 0)
}

// State is the system power consumption state of §II.B.
type State int

// The three states, ordered by severity.
const (
	Green  State = iota // safe: P < P_L
	Yellow              // warning: P_L ≤ P < P_H
	Red                 // critical: P ≥ P_H
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Thresholds holds the two configured limits P_L ≤ P_H.
type Thresholds struct {
	PL units.Watts
	PH units.Watts
}

// Validate checks the ordering invariant.
func (t Thresholds) Validate() error {
	if t.PL < 0 || t.PH < t.PL {
		return fmt.Errorf("power: invalid thresholds PL=%v PH=%v (need 0 ≤ PL ≤ PH)", t.PL, t.PH)
	}
	return nil
}

// Classify maps a system power reading to its state.
func (t Thresholds) Classify(p units.Watts) State {
	switch {
	case p < t.PL:
		return Green
	case p < t.PH:
		return Yellow
	default:
		return Red
	}
}

// Default threshold margins from Fan et al. (§III.A): the observed gap
// between achieved and theoretical aggregate power is 7%–16%, so P_H sits
// 7% and P_L 16% below the learned peak.
const (
	DefaultMarginH = 0.07
	DefaultMarginL = 0.16
)

// FromPeak derives thresholds from a peak power observation using the
// paper's rule: P_H = (1-marginH)·P_peak, P_L = (1-marginL)·P_peak.
func FromPeak(peak units.Watts, marginL, marginH float64) Thresholds {
	return Thresholds{
		PL: units.Watts((1 - marginL) * float64(peak)),
		PH: units.Watts((1 - marginH) * float64(peak)),
	}
}
