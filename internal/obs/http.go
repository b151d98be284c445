package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WritePrometheus renders every instrument in Prometheus text exposition
// format, sorted by name: counters and gauges as single samples,
// histograms as summaries (quantile series plus _sum and _count).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	for _, name := range r.Names() {
		r.mu.RLock()
		kind, _ := r.kindOf(name)
		r.mu.RUnlock()
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		switch kind {
		case KindCounter:
			fmt.Fprintf(w, "%s %d\n", name, r.Counter(name).Value())
		case KindGauge:
			fmt.Fprintf(w, "%s %s\n", name, promFloat(r.Gauge(name).Value()))
		case KindHistogram:
			s := r.Histogram(name).Snapshot()
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
				fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, q.q, promFloat(q.v))
			}
			fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(s.Sum))
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
		}
	}
}

// promFloat formats a float the way Prometheus expects (NaN spelled out,
// integers without exponent noise).
func promFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves the registry in Prometheus text format. refresh,
// if non-nil, runs before each render so gauges computed from other state
// (connected agents, node health sweeps) are current at scrape time.
func MetricsHandler(r *Registry, refresh func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if refresh != nil {
			refresh()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// CyclesReply is the JSON body served by CyclesHandler.
type CyclesReply struct {
	// Cycles is the lifetime number of cycles begun (the ring retains
	// only the tail of these).
	Cycles int64 `json:"cycles"`
	// Spans holds the returned timelines, oldest first.
	Spans []CycleSpan `json:"spans"`
}

// defaultCyclesN bounds an unqualified /debug/cycles response.
const defaultCyclesN = 32

// CyclesHandler serves the last-N cycle timelines as JSON. The optional
// ?n= query parameter selects how many (default 32, capped at the ring
// size); invalid values fall back to the default rather than erroring so
// the debug endpoint never turns a typo into a dead scrape.
func CyclesHandler(rec *CycleRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := defaultCyclesN
		if raw := req.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil && v > 0 {
				n = v
			}
		}
		reply := CyclesReply{Cycles: rec.Cycles(), Spans: rec.Spans(n)}
		if reply.Spans == nil {
			reply.Spans = []CycleSpan{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reply)
	})
}

// NewMux builds the standard observability mux: /metrics, /debug/cycles
// and the runtime profiler under /debug/pprof/. Either argument may be nil;
// the corresponding endpoint then serves empty output rather than 404 so
// probes stay simple.
func NewMux(r *Registry, rec *CycleRecorder, refresh func()) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(r, refresh))
	mux.Handle("/debug/cycles", CyclesHandler(rec))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
