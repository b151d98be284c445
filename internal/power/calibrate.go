package power

import (
	"fmt"
	"math"

	"repro/internal/procfs"
	"repro/internal/units"
)

// Calibrator fits the coefficients of formula (1) from metered samples —
// the procedure the paper's authors would run once per node type on real
// hardware: exercise the node across load points at each DVFS level with
// a reference power meter attached, then least-squares fit
//
//	P(l) ≈ a_l + b_l·Uti_CPU + c_l·MemFrac + d_l·NICFrac
//
// per level l, recovering P_idle(l), Σ P_x(l), P_mem(l) and P_NIC(l).
// The Observability assumption (§II.D) — estimation "to a sufficient
// accuracy" — rests on exactly this fit being good.
type Calibrator struct {
	levels int
	bw     units.Bytes
	// Normal-equation accumulators per level: XᵀX (4×4, symmetric) and
	// Xᵀy (4).
	xtx [][10]float64 // packed upper triangle of the symmetric 4×4
	xty [][4]float64
	n   []int
}

// NewCalibrator creates a calibrator for a node type with the given
// number of DVFS levels and NIC bandwidth (needed to turn byte counters
// into NICFrac).
func NewCalibrator(levels int, nicBandwidth units.Bytes) (*Calibrator, error) {
	if levels <= 0 {
		return nil, fmt.Errorf("power: calibrator needs positive level count")
	}
	if nicBandwidth <= 0 {
		return nil, fmt.Errorf("power: calibrator needs positive NIC bandwidth")
	}
	return &Calibrator{
		levels: levels,
		bw:     nicBandwidth,
		xtx:    make([][10]float64, levels),
		xty:    make([][4]float64, levels),
		n:      make([]int, levels),
	}, nil
}

// features extracts the regression vector (1, util, memfrac, nicfrac).
func (c *Calibrator) features(d procfs.Delta) [4]float64 {
	f := LoadOf(d, c.bw).clamped()
	return [4]float64{1, f.CPU, f.Mem, f.NIC}
}

// Add accumulates one metered sample: the node's interval counters at a
// level, with the reference meter's reading.
func (c *Calibrator) Add(level int, d procfs.Delta, measured units.Watts) error {
	if level < 0 || level >= c.levels {
		return fmt.Errorf("power: sample level %d outside [0,%d)", level, c.levels)
	}
	x := c.features(d)
	k := 0
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			c.xtx[level][k] += x[i] * x[j]
			k++
		}
		c.xty[level][i] += x[i] * float64(measured)
	}
	c.n[level]++
	return nil
}

// Samples reports how many samples level l has accumulated.
func (c *Calibrator) Samples(l int) int { return c.n[l] }

// Calibrated is a fitted per-level power model.
type Calibrated struct {
	bw   units.Bytes
	coef [][4]float64 // per level: a, b, c, d
}

// Fit solves the per-level least squares. Every level needs at least 4
// samples with enough load diversity for the normal matrix to be
// invertible; levels that were never exercised are rejected.
func (c *Calibrator) Fit() (*Calibrated, error) {
	out := &Calibrated{bw: c.bw, coef: make([][4]float64, c.levels)}
	for l := 0; l < c.levels; l++ {
		if c.n[l] < 4 {
			return nil, fmt.Errorf("power: level %d has %d samples, need ≥ 4", l, c.n[l])
		}
		// Unpack the symmetric matrix.
		var m [4][4]float64
		k := 0
		for i := 0; i < 4; i++ {
			for j := i; j < 4; j++ {
				m[i][j] = c.xtx[l][k]
				m[j][i] = c.xtx[l][k]
				k++
			}
		}
		sol, err := solve4(m, c.xty[l])
		if err != nil {
			return nil, fmt.Errorf("power: level %d: %w (exercise more load points)", l, err)
		}
		out.coef[l] = sol
	}
	return out, nil
}

// solve4 solves a 4×4 linear system by Gaussian elimination with partial
// pivoting.
func solve4(m [4][4]float64, b [4]float64) ([4]float64, error) {
	const n = 4
	for col := 0; col < n; col++ {
		// Pivot.
		piv, pivAbs := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(m[r][col]); a > pivAbs {
				piv, pivAbs = r, a
			}
		}
		if pivAbs < 1e-9 {
			return [4]float64{}, fmt.Errorf("singular normal matrix")
		}
		m[col], m[piv] = m[piv], m[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for cc := col; cc < n; cc++ {
				m[r][cc] -= f * m[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	var x [4]float64
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for cc := r + 1; cc < n; cc++ {
			sum -= m[r][cc] * x[cc]
		}
		x[r] = sum / m[r][r]
	}
	return x, nil
}

// Estimate evaluates the fitted model for one interval delta at a level
// (clamped into the fitted range).
func (cal *Calibrated) Estimate(d procfs.Delta, level int) units.Watts {
	f, co := LoadOf(d, cal.bw).clamped(), cal.coef[max(0, min(level, len(cal.coef)-1))]
	p := co[0] + co[1]*f.CPU + co[2]*f.Mem + co[3]*f.NIC
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// Coefficients returns level l's fitted (P_idle, ΣP_cpu, P_mem, P_NIC).
func (cal *Calibrated) Coefficients(l int) (idle, cpu, mem, nic units.Watts) {
	co := cal.coef[l]
	return units.Watts(co[0]), units.Watts(co[1]), units.Watts(co[2]), units.Watts(co[3])
}
