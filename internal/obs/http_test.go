package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testMux() (*http.ServeMux, *Registry, *CycleRecorder) {
	r := NewRegistry()
	rec := NewCycleRecorder(16, r)
	return NewMux(r, rec, func() { r.Gauge("agents").SetInt(2) }), r, rec
}

func TestMetricsEndpoint(t *testing.T) {
	mux, r, _ := testMux()
	r.Counter("cycles").Add(7)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, "cycles 7") {
		t.Errorf("missing counter:\n%s", text)
	}
	// The refresh hook ran before rendering.
	if !strings.Contains(text, "agents 2") {
		t.Errorf("refresh hook did not run:\n%s", text)
	}
}

func TestCyclesEndpoint(t *testing.T) {
	mux, _, rec := testMux()
	for i := 0; i < 5; i++ {
		h := rec.Begin()
		h.Stage(StageSense, 10*time.Microsecond, "readings=1")
		h.End()
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(rawURL string) CyclesReply {
		t.Helper()
		resp, err := http.Get(rawURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply CyclesReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	reply := get(srv.URL + "/debug/cycles")
	if reply.Cycles != 5 || len(reply.Spans) != 5 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Spans[0].Stages[0].Stage != "sense" {
		t.Fatalf("span stages = %+v", reply.Spans[0].Stages)
	}
	if got := get(srv.URL + "/debug/cycles?n=2"); len(got.Spans) != 2 || got.Spans[1].Cycle != 5 {
		t.Fatalf("?n=2 reply = %+v", got)
	}
	// Invalid n falls back to the default rather than erroring.
	if got := get(srv.URL + "/debug/cycles?n=banana"); len(got.Spans) != 5 {
		t.Fatalf("?n=banana reply = %+v", got)
	}
	if got := get(srv.URL + "/debug/cycles?n=-3"); len(got.Spans) != 5 {
		t.Fatalf("?n=-3 reply = %+v", got)
	}
}

// fixtureSpans is a deterministic two-cycle staged timeline, shaped like a
// real sense→classify→select→actuate→settle recording.
func fixtureSpans() []CycleSpan {
	return []CycleSpan{
		{
			Cycle:       1,
			TotalMicros: 1510,
			Stages: []StageSpan{
				{Stage: "sense", Micros: 120, Outcome: "readings=16"},
				{Stage: "classify", Micros: 4, Outcome: "yellow"},
				{Stage: "select", Micros: 890, Outcome: "targets=5"},
				{Stage: "actuate", Micros: 310, Outcome: "degrade=5"},
				{Stage: "settle", Micros: 186},
			},
		},
		{
			Cycle:       2,
			TotalMicros: 240,
			Stages: []StageSpan{
				{Stage: "sense", Micros: 110, Outcome: "readings=16"},
				{Stage: "classify", Micros: 3, Outcome: "green"},
				{Stage: "select", Micros: 0},
				{Stage: "actuate", Micros: 55, Outcome: "restore=2"},
				{Stage: "settle", Micros: 72},
			},
		},
	}
}

// TestGoldenCycleSpansJSONL pins the JSON shape of one span, the element
// /debug/cycles serves under "spans", so a scraper written against it
// keeps working.
func TestGoldenCycleSpansJSONL(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range fixtureSpans() {
		if err := enc.Encode(sp); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "cycle_spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cycle span shape drifted from testdata/cycle_spans.jsonl:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}

	// Round-trip: every line decodes back to the source span.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, line := range lines {
		var sp CycleSpan
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatal(err)
		}
		want := fixtureSpans()[i]
		if sp.Cycle != want.Cycle || sp.TotalMicros != want.TotalMicros || len(sp.Stages) != len(want.Stages) {
			t.Errorf("span %d = %+v, want %+v", i, sp, want)
		}
		for j, st := range sp.Stages {
			if st != want.Stages[j] {
				t.Errorf("span %d stage %d = %+v, want %+v", i, j, st, want.Stages[j])
			}
		}
	}
}

func TestCyclesEndpointEmpty(t *testing.T) {
	mux, _, _ := testMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/cycles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"spans": []`) {
		t.Fatalf("empty reply should serialise spans as [], got:\n%s", body)
	}
}

// TestHandlersUnderChurn hammers both endpoints while cycles are being
// recorded and instruments bumped, under -race: the read path must never
// block or torn-read the control loop.
func TestHandlersUnderChurn(t *testing.T) {
	mux, r, rec := testMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h := rec.Begin()
			h.Stage(StageSense, time.Microsecond, "readings=1")
			h.Stage(StageClassify, time.Microsecond, "green")
			h.End()
			go h.Stage(StageSettle, time.Microsecond, "cmds=0")
			r.Counter("cycles").Inc()
			r.Gauge("last_power_w").Set(float64(i))
		}
	}()
	for i := 0; i < 50; i++ {
		for _, path := range []string{"/metrics", "/debug/cycles", "/debug/cycles?n=3"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s -> %d", path, resp.StatusCode)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzObsHandlers throws arbitrary request targets at the observability
// mux while a background goroutine churns the recorder, checking the
// handlers never panic and always answer.
func FuzzObsHandlers(f *testing.F) {
	f.Add("/metrics")
	f.Add("/debug/cycles")
	f.Add("/debug/cycles?n=10")
	f.Add("/debug/cycles?n=-1")
	f.Add("/debug/cycles?n=99999999999999999999")
	f.Add("/debug/cycles?n=banana&n=2")
	f.Add("/unknown")
	f.Add("/metrics?format=%zz")

	mux, r, rec := testMux()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := rec.Begin()
			h.Stage(StageActuate, time.Microsecond, "actions=1")
			h.End()
			r.Counter("cycles").Inc()
		}
	}()
	f.Cleanup(func() { close(stop); wg.Wait() })

	f.Fuzz(func(t *testing.T, target string) {
		if _, err := url.ParseRequestURI(target); err != nil || !strings.HasPrefix(target, "/") {
			t.Skip()
		}
		// httptest.NewRequest builds a raw request line, so whitespace or
		// control bytes would make it panic before the mux is reached —
		// those can never arrive at a handler through a real server.
		if strings.ContainsFunc(target, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
			t.Skip()
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rw := httptest.NewRecorder()
		mux.ServeHTTP(rw, req)
		if rw.Code == 0 {
			t.Fatalf("no status written for %q", target)
		}
	})
}
