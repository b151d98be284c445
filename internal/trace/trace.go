// Package trace writes run artefacts — power time-series and job
// completion records as CSV, control-loop events as JSON lines — and
// renders series as terminal sparklines.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// WriteSeriesCSV writes a power series as "seconds,watts" rows with a
// header.
func WriteSeriesCSV(w io.Writer, s *metrics.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "power_w"}); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		t, p := s.At(i)
		rec := []string{
			strconv.FormatFloat(t.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(float64(p), 'f', 1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JobRecord is the exported form of one finished job.
type JobRecord struct {
	ID        int     `json:"id"`
	Benchmark string  `json:"benchmark"`
	NProcs    int     `json:"nprocs"`
	Nodes     int     `json:"nodes"`
	StartSec  float64 `json:"start_s"`
	EndSec    float64 `json:"end_s"`
	RefSec    float64 `json:"ref_s"`
	ActualSec float64 `json:"actual_s"`
	Lossless  bool    `json:"lossless"`
}

// NewJobRecord converts a finished job.
func NewJobRecord(j *workload.Job, tol float64) JobRecord {
	return JobRecord{
		ID:        int(j.ID()),
		Benchmark: j.Spec().Name,
		NProcs:    j.NProcs(),
		Nodes:     len(j.Nodes()),
		StartSec:  j.Start().Seconds(),
		EndSec:    j.End().Seconds(),
		RefSec:    j.ReferenceDuration().Seconds(),
		ActualSec: j.ActualDuration().Seconds(),
		Lossless:  j.Lossless(tol),
	}
}

// WriteJobsCSV writes finished jobs as CSV.
func WriteJobsCSV(w io.Writer, jobs []*workload.Job, tol float64) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "benchmark", "nprocs", "nodes", "start_s", "end_s", "ref_s", "actual_s", "lossless"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, j := range jobs {
		if !j.Done() {
			continue
		}
		r := NewJobRecord(j, tol)
		rec := []string{
			strconv.Itoa(r.ID), r.Benchmark, strconv.Itoa(r.NProcs),
			strconv.Itoa(r.Nodes),
			strconv.FormatFloat(r.StartSec, 'f', 1, 64),
			strconv.FormatFloat(r.EndSec, 'f', 1, 64),
			strconv.FormatFloat(r.RefSec, 'f', 1, 64),
			strconv.FormatFloat(r.ActualSec, 'f', 1, 64),
			strconv.FormatBool(r.Lossless),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Event is a control-loop event for the event log.
type Event struct {
	TimeSec float64 `json:"t_s"`
	Kind    string  `json:"kind"`           // "cycle", "degrade", "restore", "red"
	State   string  `json:"state"`          // green/yellow/red
	PowerW  float64 `json:"p_w"`            // meter reading
	Nodes   int     `json:"nodes"`          // nodes acted on
	Note    string  `json:"note,omitempty"` // free-form detail
}

// EventLog collects events and serialises them as JSON lines.
type EventLog struct {
	events []Event
}

// Add appends an event.
func (l *EventLog) Add(e Event) { l.events = append(l.events, e) }

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns the recorded events.
func (l *EventLog) Events() []Event { return l.events }

// WriteJSONL serialises the log.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
