package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/procfs"
)

// pipeConn adapts an in-memory pipe to io.ReadWriteCloser.
type pipeConn struct {
	io.Reader
	io.Writer
}

func (pipeConn) Close() error { return nil }

func TestEnvelopeRoundTrip(t *testing.T) {
	r := manager.AgentReading{
		ID: 42, Level: 7, MaxLevel: 9,
		Delta: procfs.Delta{
			Interval: 1500 * time.Millisecond,
			CPUUtil:  0.625,
			MemUsed:  1 << 33,
			MemTotal: 48 << 30,
			NICBytes: 123456789,
		},
		Job: 11,
	}
	env := SampleEnvelope(r)
	got := env.Reading()
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestConnSendRecv(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	msgs := []Envelope{
		{Type: KindHello, Node: 3, MaxLevel: 9},
		{Type: KindCommand, Node: 3, Level: 2},
		{Type: KindStatus, Stats: &StatusReply{Agents: 5, CPUUtilise: 0.25}},
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Node != want.Node || got.Level != want.Level {
			t.Errorf("msg %d: got %+v, want %+v", i, got, want)
		}
		if want.Stats != nil && (got.Stats == nil || got.Stats.Agents != 5) {
			t.Errorf("stats lost: %+v", got.Stats)
		}
	}
}

// TestSeqAndPingRoundTrip covers the fail-safe additions: commands carry a
// sequence number the ack must echo, and pings survive the trip unchanged.
func TestSeqAndPingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	msgs := []Envelope{
		{Type: KindCommand, Node: 4, Level: 3, Seq: 17},
		{Type: KindAck, Node: 4, Level: 3, Seq: 17},
		{Type: KindPing},
		{Type: KindHello, Node: 4, MaxLevel: 9, Level: 2}, // reconnecting throttled agent
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Level != want.Level || got.Node != want.Node {
			t.Errorf("msg %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestStatusReplyFailSafeFields checks the health/ack/journal counters
// survive encoding — a powctl from this version against a manager of the
// same version must see every fail-safe counter.
func TestStatusReplyFailSafeFields(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	st := StatusReply{
		Trained: true, LifetimePeakW: 12345.5,
		CommandAcks: 7, CommandRetries: 3, Reconciles: 2, Drifted: 1,
		HealthyNodes: 4, StaleNodes: 1, LostNodes: 2, QuarantinedNodes: 1,
		Quarantines: 5, JournalWrites: 9,
	}
	if err := c.Send(Envelope{Type: KindStatus, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats == nil || *got.Stats != st {
		t.Errorf("status reply mangled: got %+v, want %+v", got.Stats, st)
	}
}

// TestSendBatch covers the batched encode path: several messages in one
// frame, one flush; single-element batches unwrap to a plain envelope and
// empty batches write nothing.
func TestSendBatch(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	if err := c.SendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes", buf.Len())
	}
	if err := c.SendBatch([]Envelope{{Type: KindPing}}); err != nil {
		t.Fatal(err)
	}
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != KindPing || len(env.Batch) != 0 {
		t.Errorf("single-element batch not unwrapped: %+v", env)
	}

	batch := []Envelope{
		{Type: KindCommand, Node: 7, Level: 2, Seq: 41},
		{Type: KindPing},
	}
	if err := c.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	env, err = c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != KindBatch || len(env.Batch) != 2 {
		t.Fatalf("batch frame mangled: %+v", env)
	}
	if cmd := env.Batch[0]; cmd.Type != KindCommand || cmd.Node != 7 || cmd.Level != 2 || cmd.Seq != 41 {
		t.Errorf("batched command mangled: %+v", cmd)
	}
	if env.Batch[1].Type != KindPing {
		t.Errorf("batched ping mangled: %+v", env.Batch[1])
	}
}

// TestOneSendOneWrite pins what the write side guarantees now that it is
// unbuffered: every Send or SendBatch, on either codec and for every frame
// kind, reaches the underlying stream as exactly one Write holding exactly
// that frame. For a batch that is the whole point of batching (one
// faultnet fault roll, not one per message); for the rest it is the
// property the bufio.Writer and its Flush used to provide.
func TestOneSendOneWrite(t *testing.T) {
	batch := []Envelope{
		{Type: KindCommand, Node: 1, Level: 0, Seq: 1},
		{Type: KindCommand, Node: 1, Level: 3, Seq: 2},
		{Type: KindPing},
	}
	for _, binary := range []bool{false, true} {
		cw := &countingWriter{}
		c := NewConn(pipeConn{bytes.NewReader(nil), cw})
		if binary {
			c.EnableBinary()
		}
		sends := 0
		for _, e := range kindExemplars() {
			if err := c.Send(e); err != nil {
				t.Fatalf("binary=%v %s: %v", binary, e.Type, err)
			}
			if sends++; cw.writes != sends {
				t.Fatalf("binary=%v %s: %d writes after %d sends", binary, e.Type, cw.writes, sends)
			}
		}
		if err := c.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if sends++; cw.writes != sends {
			t.Errorf("binary=%v: batch of 3 took %d writes, want 1", binary, cw.writes-sends+1)
		}
		// Each write was one whole frame: the stream decodes back into
		// exactly as many messages as were sent.
		r := NewConn(pipeConn{bytes.NewReader(cw.buf.Bytes()), io.Discard})
		for i := 0; i < sends; i++ {
			if _, err := r.Recv(); err != nil {
				t.Fatalf("binary=%v: message %d of %d: %v", binary, i, sends, err)
			}
		}
		if _, err := r.Recv(); err != io.EOF {
			t.Errorf("binary=%v: trailing bytes after %d messages: %v", binary, sends, err)
		}
	}
}

// countingWriter counts Writes and keeps what they wrote; the first
// failNext of them fail without consuming anything.
type countingWriter struct {
	writes   int
	failNext int
	buf      bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failNext > 0 {
		w.failNext--
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

// TestWriteErrorLeavesNothingBuffered: a failed Send must not leave its
// frame (or part of it) behind to be flushed in front of the next one.
func TestWriteErrorLeavesNothingBuffered(t *testing.T) {
	for _, binary := range []bool{false, true} {
		cw := &countingWriter{failNext: 1}
		c := NewConn(pipeConn{bytes.NewReader(nil), cw})
		if binary {
			c.EnableBinary()
		}
		if err := c.Send(Envelope{Type: KindCommand, Node: 1, Level: 2, Seq: 8}); err == nil {
			t.Fatalf("binary=%v: write error swallowed", binary)
		}
		if err := c.Send(Envelope{Type: KindAck, Node: 1, Level: 2, Seq: 9}); err != nil {
			t.Fatal(err)
		}
		if cw.writes != 2 {
			t.Errorf("binary=%v: %d writes for one failed and one good send", binary, cw.writes)
		}
		r := NewConn(pipeConn{bytes.NewReader(cw.buf.Bytes()), io.Discard})
		env, err := r.Recv()
		if err != nil || env.Type != KindAck || env.Seq != 9 {
			t.Errorf("binary=%v: stream after the failed send starts with %+v (%v), want the ack", binary, env, err)
		}
		if _, err := r.Recv(); err != io.EOF {
			t.Errorf("binary=%v: leftover bytes from the failed send: %v", binary, err)
		}
	}
}

// TestFramesLargerThanReadBuffer: the read buffer is sized for commands
// and samples; everything bigger — a full status reply, a multi-KiB
// journal entry, a payload at the frame cap — spills into the
// connection's read buffer and still decodes, on both codecs, and the
// small frames behind it are not disturbed.
func TestFramesLargerThanReadBuffer(t *testing.T) {
	var full StatusReply
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1_000_000_007 * (i + 1)))
		case reflect.Float64:
			f.SetFloat(12345.678 * float64(i+1))
		case reflect.Bool:
			f.SetBool(true)
		}
	}
	// The largest entry the binary codec carries: grow the filler until
	// the frame's payload sits exactly on the cap.
	capped := Envelope{Type: KindJournalAppend, Seq: 3, Epoch: 2}
	filler := maxFramePayload - 64
	for {
		capped.Entry = json.RawMessage(`"` + strings.Repeat("x", filler) + `"`)
		frame, err := AppendFrame(nil, &capped)
		if err != nil {
			t.Fatal(err)
		}
		payload := len(frame) - frameHeaderLen - 4
		if payload == maxFramePayload {
			break
		}
		filler += maxFramePayload - payload
	}
	over := capped
	over.Entry = json.RawMessage(`"` + strings.Repeat("x", filler+1) + `"`)
	if _, err := AppendFrame(nil, &over); err == nil {
		t.Error("a payload one byte over the cap was encoded")
	}

	big := []Envelope{
		{Type: KindStatus, Stats: &full},
		{Type: KindJournalAppend, Seq: 1, Epoch: 2,
			Entry: json.RawMessage(`{"seq":1,"pad":"` + strings.Repeat("j", 4<<10) + `"}`)},
		capped,
	}
	small := Envelope{Type: KindCommand, Node: 4, Level: 3, Seq: 17}
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		c := NewConn(pipeConn{&buf, &buf})
		if binary {
			c.EnableBinary()
		}
		for _, e := range big {
			if err := c.Send(e); err != nil {
				t.Fatalf("binary=%v %s: %v", binary, e.Type, err)
			}
			if err := c.Send(small); err != nil {
				t.Fatal(err)
			}
		}
		if buf.Len() < 3*readBufSize {
			t.Fatalf("test frames (%d bytes) do not exceed the read buffer", buf.Len())
		}
		for _, want := range big {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("binary=%v %s: %v", binary, want.Type, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("binary=%v: %s frame of %d entry bytes mangled", binary, want.Type, len(want.Entry))
			}
			if got, err := c.Recv(); err != nil || !reflect.DeepEqual(got, small) {
				t.Errorf("binary=%v: command behind the %s frame: %+v (%v)", binary, want.Type, got, err)
			}
		}
	}
}

// TestJSONLineIsCapped: a line with no newline in sight is cut off at
// maxLineLen with a fatal error, because framing is lost, and the read
// buffer never grows past the cap on the way.
func TestJSONLineIsCapped(t *testing.T) {
	c := NewConn(pipeConn{strings.NewReader(strings.Repeat("x", maxLineLen+1)), io.Discard})
	_, err := c.Recv()
	var de *DecodeError
	if !errors.As(err, &de) || de.Recoverable() || de.Codec != CodecJSON {
		t.Fatalf("want fatal json DecodeError, got %v", err)
	}
	if cap(c.readBuf) > maxLineLen {
		t.Fatalf("read buffer grew to %d bytes past the %d-byte cap", cap(c.readBuf), maxLineLen)
	}
}

func TestRecvEOF(t *testing.T) {
	c := NewConn(pipeConn{bytes.NewReader(nil), io.Discard})
	if _, err := c.Recv(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestRecvGarbage(t *testing.T) {
	c := NewConn(pipeConn{bytes.NewReader([]byte("{not json}\n")), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestRecvFinalUnterminatedLine(t *testing.T) {
	c := NewConn(pipeConn{bytes.NewReader([]byte(`{"type":"ack","node":1}`)), io.Discard})
	env, err := c.Recv()
	if err != nil {
		t.Fatalf("unterminated final line: %v", err)
	}
	if env.Type != KindAck || env.Node != 1 {
		t.Errorf("env = %+v", env)
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Envelope, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(raw)
		env, _ := c.Recv()
		done <- env
		c.Close()
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	if err := c.Send(Envelope{Type: KindHello, Node: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-done:
		if env.Node != 9 {
			t.Errorf("received %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	c.Close()
}

// TestEnvelopeKindsRoundTrip sends one representative envelope of every
// message kind through the line protocol and checks it decodes
// field-for-field. Any new Kind* constant must be added here.
func TestEnvelopeKindsRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		env  Envelope
	}{
		{"hello", Envelope{Type: KindHello, Node: 12, MaxLevel: 9}},
		{"sample", Envelope{
			Type: KindSample, Node: 12, Level: 4, MaxLevel: 9,
			CPUUtil: 0.875, MemUsed: 3 << 30, MemTotal: 24 << 30,
			NICBytes: 987654, IntervalMS: 1000, Job: 5,
		}},
		{"command", Envelope{Type: KindCommand, Node: 12, Level: 2}},
		{"ack", Envelope{Type: KindAck, Node: 12, Level: 2}},
		{"status", Envelope{Type: KindStatus, Stats: &StatusReply{Agents: 3}}},
		{"ping", Envelope{Type: KindPing}},
	}
	kinds := map[string]bool{
		KindHello: false, KindSample: false, KindCommand: false,
		KindAck: false, KindStatus: false, KindPing: false,
		KindBatch: true, // covered by TestSendBatch (slice field breaks == comparison)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			c := NewConn(pipeConn{&buf, &buf})
			if err := c.Send(tc.env); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if tc.env.Stats != nil {
				if got.Stats == nil || *got.Stats != *tc.env.Stats {
					t.Fatalf("stats round trip: got %+v, want %+v", got.Stats, tc.env.Stats)
				}
				got.Stats, tc.env.Stats = nil, nil
			}
			if !reflect.DeepEqual(got, tc.env) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tc.env)
			}
		})
		kinds[tc.env.Type] = true
	}
	for k, covered := range kinds {
		if !covered {
			t.Errorf("message kind %q has no round-trip case", k)
		}
	}
}

// TestStatusReplyFieldForField round-trips a StatusReply with every field
// set to a distinct value, so a field added to the struct but dropped
// from its JSON tags (or shadowed by a duplicate tag) cannot slip by.
func TestStatusReplyFieldForField(t *testing.T) {
	want := StatusReply{
		Agents: 1, Cycles: 2, GreenCycles: 3, YellowCycles: 4,
		RedCycles: 5, RedEntries: 6, DegradeOps: 7, RestoreOps: 8,
		BusyMicros: 9, CPUUtilise: 0.625, LastPowerW: 11.5,
		ThresholdPLW: 12.5, ThresholdPHW: 13.5, DroppedStale: 14,
		CommandErrors: 15, SamplesReceived: 16,
	}
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	if err := c.Send(Envelope{Type: KindStatus, Stats: &want}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats == nil {
		t.Fatal("stats lost")
	}
	if *got.Stats != want {
		t.Errorf("field-for-field mismatch:\n got %+v\nwant %+v", *got.Stats, want)
	}
}

// TestRecvToleratesUnknownFields is the forward-compatibility contract:
// a newer peer adding envelope fields (even whole sub-objects) must not
// break an older decoder, which ignores what it does not know.
func TestRecvToleratesUnknownFields(t *testing.T) {
	lines := []string{
		`{"type":"sample","node":3,"level":9,"flux_capacitance":1.21,"vendor":{"model":"X5670"}}`,
		`{"type":"hello","node":1,"max_level":9,"protocol_rev":7,"features":["batching","zstd"]}`,
		`{"type":"command","node":1,"level":2,"deadline_ms":250}`,
	}
	for _, line := range lines {
		c := NewConn(pipeConn{bytes.NewReader([]byte(line + "\n")), io.Discard})
		env, err := c.Recv()
		if err != nil {
			t.Errorf("unknown fields rejected: %q: %v", line, err)
			continue
		}
		if env.Type == "" || env.Node == 0 {
			t.Errorf("known fields lost amid unknown ones: %+v from %q", env, line)
		}
	}
}

func TestReadingIdentity(t *testing.T) {
	// Envelope → Reading must preserve node.ID typing.
	e := Envelope{Type: KindSample, Node: 5, Level: 3, MaxLevel: 9, IntervalMS: 1000}
	r := e.Reading()
	if r.ID != node.ID(5) || r.Delta.Interval != time.Second {
		t.Errorf("reading = %+v", r)
	}
}

// TestTrySendDeclinesOnAPipe: a stream with neither a TryWrite of its own
// nor a socket under it (net.Pipe) cannot write without blocking, so
// TrySend declines every frame and writes nothing; Send still works.
func TestTrySendDeclinesOnAPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tx, rx := NewConn(a), NewConn(b)
	for _, binary := range []bool{false, true} {
		if binary {
			tx.EnableBinary()
		}
		if done, err := tx.TrySend(Envelope{Type: KindPing}); done || err != nil || tx.Pending() {
			t.Fatalf("TrySend on a pipe (binary %v) = %v, %v, pending %v; want a decline", binary, done, err, tx.Pending())
		}
	}
	go tx.Send(Envelope{Type: KindCommand, Node: 3, Level: 1, Seq: 9})
	got, err := rx.Recv()
	if err != nil || got.Type != KindCommand || got.Seq != 9 {
		t.Fatalf("after the declines the pipe carried %+v (%v), want only the sent command", got, err)
	}
}
