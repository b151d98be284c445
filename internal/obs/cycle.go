package obs

import (
	"sync"
	"time"
)

// Stage names one phase of the shared control law's cycle. Every backend
// — the in-process simulator, the networked managerd, and core driving
// either — tags the same five stages so their timelines are comparable:
//
//	sense    — collect per-node readings and build the policy snapshot
//	classify — threshold comparison assigning green/yellow/red
//	select   — policy target selection (yellow only)
//	actuate  — issuing node level commands
//	settle   — waiting for command fan-out / acknowledgements
type Stage int

const (
	StageSense Stage = iota
	StageClassify
	StageSelect
	StageActuate
	StageSettle
	numStages
)

var stageNames = [numStages]string{"sense", "classify", "select", "actuate", "settle"}

// String returns the stage's canonical lowercase name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists all stages in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageSpan is one timed stage within a cycle.
type StageSpan struct {
	Stage   string `json:"stage"`
	Micros  int64  `json:"micros"`
	Outcome string `json:"outcome,omitempty"`
}

// CycleSpan is the staged timeline of one control cycle. Durations are
// host time in microseconds; Cycle numbers are 1-based in Begin order.
// TotalMicros covers Begin to End on the critical path; asynchronous
// stages (settle) may land after End and are not included in it.
type CycleSpan struct {
	Cycle       int64       `json:"cycle"`
	TotalMicros int64       `json:"total_micros"`
	Stages      []StageSpan `json:"stages"`
}

// span is the mutable in-ring representation.
type span struct {
	CycleSpan
	t0 time.Time
	// buf backs Stages for a cycle that records each stage once.
	buf [numStages]StageSpan
}

// CycleRecorder keeps the staged timelines of the last N cycles in a
// fixed ring. All methods are safe on a nil receiver (recording becomes a
// no-op) and safe for concurrent use: the control loop appends stages
// while HTTP readers snapshot, and the asynchronous fan-out completion
// records its settle stage into a handle the cycle already closed.
//
// When a Registry is attached, every stage duration also feeds a
// "cycle_stage_<stage>_micros" histogram and each End feeds
// "cycle_total_micros", so quantiles survive the ring's horizon.
type CycleRecorder struct {
	mu   sync.Mutex
	reg  *Registry
	capn int
	n    int64
	ring []*span
	cur  *span
	// hist caches the registry's histograms, one per stage and the total's
	// last, each resolved on first use: an idle recorder registers no names.
	hist [numStages + 1]*Histogram
}

// histFor returns slot i's histogram (a Stage, or numStages for the cycle
// total), nil without a registry. Caller holds r.mu.
func (r *CycleRecorder) histFor(i Stage) *Histogram {
	switch {
	case r.reg == nil:
		return nil
	case i < 0 || i > numStages:
		return r.reg.Histogram("cycle_stage_unknown_micros")
	case r.hist[i] == nil && i == numStages:
		r.hist[i] = r.reg.Histogram("cycle_total_micros")
	case r.hist[i] == nil:
		r.hist[i] = r.reg.Histogram("cycle_stage_" + i.String() + "_micros")
	}
	return r.hist[i]
}

// DefaultCycleHistory is the ring capacity used when none is given.
const DefaultCycleHistory = 512

// NewCycleRecorder creates a recorder holding the last capacity cycles
// (DefaultCycleHistory when capacity <= 0). reg may be nil.
func NewCycleRecorder(capacity int, reg *Registry) *CycleRecorder {
	if capacity <= 0 {
		capacity = DefaultCycleHistory
	}
	return &CycleRecorder{reg: reg, capn: capacity, ring: make([]*span, 0, capacity)}
}

// CycleHandle addresses one cycle's span so asynchronous completions can
// record stages after the cycle closed. A nil handle is a no-op.
type CycleHandle struct {
	r  *CycleRecorder
	sp *span
}

// Begin opens the span for a new cycle and makes it current.
func (r *CycleRecorder) Begin() *CycleHandle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	sp := &span{CycleSpan: CycleSpan{Cycle: r.n}, t0: time.Now()}
	sp.Stages = sp.buf[:0]
	if len(r.ring) < r.capn {
		r.ring = append(r.ring, sp)
	} else {
		r.ring[int((r.n-1)%int64(r.capn))] = sp
	}
	r.cur = sp
	return &CycleHandle{r: r, sp: sp}
}

// Stage records a stage on the current (most recently begun) cycle. Used
// by code that runs between Begin and End but has no handle, such as the
// manager recording classify/select/actuate inside Cycle.
func (r *CycleRecorder) Stage(st Stage, d time.Duration, outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	sp := r.cur
	r.mu.Unlock()
	if sp == nil {
		return
	}
	(&CycleHandle{r: r, sp: sp}).Stage(st, d, outcome)
}

// Stage records one timed stage on the handle's cycle.
func (h *CycleHandle) Stage(st Stage, d time.Duration, outcome string) {
	if h == nil || h.r == nil || h.sp == nil {
		return
	}
	us := d.Microseconds()
	h.r.mu.Lock()
	h.sp.Stages = append(h.sp.Stages, StageSpan{Stage: st.String(), Micros: us, Outcome: outcome})
	hist := h.r.histFor(st)
	h.r.mu.Unlock()
	if hist != nil {
		hist.Observe(float64(us))
	}
}

// End stamps the cycle's critical-path total. Safe to call once per
// handle; later Stage calls (settle) still land on the span.
func (h *CycleHandle) End() {
	if h == nil || h.r == nil || h.sp == nil {
		return
	}
	h.r.mu.Lock()
	us := time.Since(h.sp.t0).Microseconds()
	h.sp.TotalMicros = us
	hist := h.r.histFor(numStages)
	h.r.mu.Unlock()
	if hist != nil {
		hist.Observe(float64(us))
	}
}

// Cycles returns how many cycles have begun.
func (r *CycleRecorder) Cycles() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Spans returns deep copies of the last n retained cycles in
// chronological order (all retained cycles when n <= 0).
func (r *CycleRecorder) Spans(n int) []CycleSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ordered []*span
	if len(r.ring) < r.capn {
		ordered = r.ring
	} else {
		start := int(r.n % int64(r.capn))
		ordered = append(append([]*span{}, r.ring[start:]...), r.ring[:start]...)
	}
	if n > 0 && n < len(ordered) {
		ordered = ordered[len(ordered)-n:]
	}
	out := make([]CycleSpan, len(ordered))
	for i, sp := range ordered {
		out[i] = sp.CycleSpan
		out[i].Stages = append([]StageSpan(nil), sp.Stages...)
	}
	return out
}

// Last returns the most recent retained cycle, if any.
func (r *CycleRecorder) Last() (CycleSpan, bool) {
	spans := r.Spans(1)
	if len(spans) == 0 {
		return CycleSpan{}, false
	}
	return spans[0], true
}
