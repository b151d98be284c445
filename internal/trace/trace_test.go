package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestWriteSeriesCSV(t *testing.T) {
	s := &metrics.Series{}
	s.Add(0, 100)
	s.Add(time.Second, 200.5)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "time_s" || recs[0][1] != "power_w" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[2][0] != "1.000" || recs[2][1] != "200.5" {
		t.Errorf("row = %v", recs[2])
	}
}

func doneJob(t *testing.T) *workload.Job {
	t.Helper()
	spec, _ := workload.SpecByName(workload.NPB(workload.ClassC), "CG")
	j, err := workload.NewJob(3, workload.Request{Spec: spec, NProcs: 16},
		[]node.ID{0, 1}, time.Minute, workload.JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Minute
	for !j.Done() {
		j.Advance(now, time.Second, 1)
		now += time.Second
	}
	return j
}

func TestJobRecord(t *testing.T) {
	j := doneJob(t)
	r := NewJobRecord(j, 0.001)
	if r.ID != 3 || r.Benchmark != "CG" || r.NProcs != 16 || r.Nodes != 2 {
		t.Errorf("record = %+v", r)
	}
	if !r.Lossless {
		t.Error("unthrottled job not lossless in record")
	}
	if r.StartSec != 60 {
		t.Errorf("start = %v", r.StartSec)
	}
	if diff := r.ActualSec - r.RefSec; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("actual %v != ref %v for unthrottled job", r.ActualSec, r.RefSec)
	}
}

func TestWriteJobsCSVSkipsUnfinished(t *testing.T) {
	spec, _ := workload.SpecByName(workload.NPB(workload.ClassC), "CG")
	unfinished, _ := workload.NewJob(9, workload.Request{Spec: spec, NProcs: 8},
		[]node.ID{0}, 0, workload.JobConfig{})
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, []*workload.Job{unfinished, doneJob(t)}, 0.001); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // header + one finished job
		t.Errorf("rows = %d, want 2", len(recs))
	}
}

func TestEventLog(t *testing.T) {
	var l EventLog
	l.Add(Event{TimeSec: 1, Kind: "cycle", State: "green", PowerW: 30000})
	l.Add(Event{TimeSec: 2, Kind: "degrade", State: "yellow", PowerW: 32000, Nodes: 4})
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "degrade" || e.Nodes != 4 {
		t.Errorf("event = %+v", e)
	}
	if len(l.Events()) != 2 {
		t.Error("Events accessor")
	}
}

func TestSparkline(t *testing.T) {
	s := &metrics.Series{}
	for i := 0; i <= 100; i++ {
		// A ramp from 100 to 200 W.
		s.Add(time.Duration(i)*time.Second, units.Watts(100+float64(i)))
	}
	spark := Sparkline(s, 10)
	if len([]rune(spark)) != 10 {
		t.Fatalf("width = %d: %q", len([]rune(spark)), spark)
	}
	runes := []rune(spark)
	if runes[0] >= runes[9] {
		t.Errorf("ramp not rising: %q", spark)
	}
	// Degenerate inputs.
	if Sparkline(&metrics.Series{}, 10) != "" {
		t.Error("empty series produced output")
	}
	if Sparkline(s, 0) != "" {
		t.Error("zero width produced output")
	}
	flat := &metrics.Series{}
	flat.Add(0, 100)
	flat.Add(time.Second, 100)
	if got := Sparkline(flat, 5); len([]rune(got)) != 5 {
		t.Errorf("flat series: %q", got)
	}
}

func TestSparklineWithScale(t *testing.T) {
	s := &metrics.Series{}
	s.Add(0, 28000)
	s.Add(time.Minute, 39000)
	out := SparklineWithScale(s, 8)
	if !strings.Contains(out, "28.00 kW") || !strings.Contains(out, "39.00 kW") {
		t.Errorf("scale labels missing: %q", out)
	}
	if SparklineWithScale(&metrics.Series{}, 8) != "" {
		t.Error("empty series produced scaled output")
	}
}

// failAfter errors after n bytes, exercising writer error paths.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriter
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriter
	}
	f.n -= len(p)
	return len(p), nil
}

var errWriter = errors.New("writer failed")

func TestWriteErrorsPropagate(t *testing.T) {
	s := &metrics.Series{}
	s.Add(0, 100)
	s.Add(time.Second, 200)
	if err := WriteSeriesCSV(&failAfter{n: 5}, s); err == nil {
		t.Error("series CSV write error swallowed")
	}
	jobs := []*workload.Job{doneJob(t)}
	if err := WriteJobsCSV(&failAfter{n: 5}, jobs, 0.001); err == nil {
		t.Error("jobs CSV write error swallowed")
	}
	var l EventLog
	l.Add(Event{Kind: "cycle"})
	if err := l.WriteJSONL(&failAfter{n: 2}); err == nil {
		t.Error("event log write error swallowed")
	}
}
