package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Parent is
// the index of the span that caused it (-1 for a round); spans of one
// episode share Episode. Tag classifies the call once its outcome is
// known (a managerd_step's state, for one).
type span struct {
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Episode int    `json:"episode"`
}

// tracer keeps spans in memory until the run ends. Every method is a no-op
// on a nil tracer, which is how the untraced runs skip it.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	episode int
	round   atomic.Int64 // open round span, the parent of agent_apply instants
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Episode: t.episode})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, tag string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].Tag = now, tag
	t.mu.Unlock()
}

func (t *tracer) setEpisode(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.episode = n
	t.mu.Unlock()
}

// instant records a zero-length span under the open round; agents call it
// from their Apply callbacks, off the driver goroutine.
func (t *tracer) instant(name string) {
	t.begin(name, int(t.round.Load()))
}

// selfTimes sums, per span name and tag, each span's duration minus the
// part its children cover, and counts the spans. Children of one parent
// never overlap: they are consecutive calls on the driver goroutine.
func (t *tracer) selfTimes() (self map[string]time.Duration, total map[string]time.Duration, count map[string]int) {
	self, total, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		key := s.Name
		if s.Tag != "" {
			key += "." + s.Tag
		}
		d := s.End - s.Start
		self[key] += time.Duration(d - covered[i])
		total[key] += time.Duration(d)
		count[key]++
	}
	return self, total, count
}

// write dumps the spans, then any extra records (the program's own staged
// cycle timelines), one JSON object per line.
func (t *tracer) write(path string, extra []any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for _, rec := range extra {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
