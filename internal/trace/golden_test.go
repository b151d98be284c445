package trace

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// -update regenerates the golden files under testdata/ from the current
// writer output:
//
//	go test ./internal/trace -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>, rewriting the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenSeriesCSV(t *testing.T) {
	s := &metrics.Series{}
	s.Add(0, 29750.5)
	s.Add(time.Second, 31002)
	s.Add(2*time.Second, 33417.25)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	golden(t, "series.csv", buf.Bytes())
}

func TestGoldenJobsCSV(t *testing.T) {
	jobs := []*workload.Job{doneJob(t)}

	var cs bytes.Buffer
	if err := WriteJobsCSV(&cs, jobs, 0.001); err != nil {
		t.Fatal(err)
	}
	golden(t, "jobs.csv", cs.Bytes())

	// The export describes the job's record.
	rec := NewJobRecord(jobs[0], 0.001)
	recs, err := csv.NewReader(bytes.NewReader(cs.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][1] != rec.Benchmark {
		t.Errorf("CSV %v vs record %+v", recs, rec)
	}
}

func TestGoldenEventsJSONL(t *testing.T) {
	var l EventLog
	l.Add(Event{TimeSec: 1, Kind: "cycle", State: "green", PowerW: 29750.5, Nodes: 0})
	l.Add(Event{TimeSec: 2, Kind: "degrade", State: "yellow", PowerW: 33417.25, Nodes: 5, Note: "Td levels"})
	l.Add(Event{TimeSec: 3, Kind: "red", State: "red", PowerW: 35120, Nodes: 16, Note: "floor"})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "events.jsonl", buf.Bytes())
}
