package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// jsonRoundTrip normalises an envelope through the JSON codec — the
// compatibility reference both codecs must agree with.
func jsonRoundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Envelope
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

// binaryRoundTrip normalises an envelope through the binary codec.
func binaryRoundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	frame, err := AppendFrame(nil, &e)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var out Envelope
	if err := DecodeFrame(frame, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	return out
}

// representative envelopes, one per kind, every field class exercised.
func kindExemplars() []Envelope {
	return []Envelope{
		{Type: KindHello, Node: 3, MaxLevel: 9, Level: 2, Epoch: 7,
			Codecs: []string{CodecBinary, CodecJSON}},
		{Type: KindHello, Epoch: 4, Codec: CodecBinary}, // manager reply
		{Type: KindSample, Node: -12, Level: 5, MaxLevel: 9, CPUUtil: 0.625,
			MemUsed: 1 << 33, MemTotal: 48 << 30, NICBytes: 123456789,
			IntervalMS: 1500, Job: 11},
		{Type: KindCommand, Node: 4, Level: 3, Seq: 17},
		{Type: KindAck, Node: 4, Level: 3, Seq: 17},
		{Type: KindPing},
		{Type: KindStatus, Stats: &StatusReply{Agents: 5, CPUUtilise: 0.25,
			LastPowerW: 8123.5, Trained: true, Epoch: 3, Leader: true}},
		{Type: KindBatch, Batch: []Envelope{
			{Type: KindCommand, Node: 2, Level: 1, Seq: 9},
			{Type: KindPing},
		}},
		{Type: KindJournalAppend, Seq: 42, Epoch: 2,
			Entry: json.RawMessage(`{"seq":42,"cycle":17,"levels":[{"node":3,"level":1}]}`)},
		{Type: KindJournalAck, Seq: 41, Epoch: 2},
		{Type: KindCabReport, Node: 2, Seq: 6, PowerW: 10240.5, DemandW: 15360.25,
			BudgetW: 9000, PHW: 9600, Agents: 128, Healthy: 126,
			Codecs: []string{CodecBinary}},
		{Type: KindCabBudget, Node: 2, Seq: 7, BudgetW: 8750.5, PHW: 9350.75, Epoch: 3},
	}
}

// TestBinaryRoundTripAllKinds: for every kind, both codecs decode to the
// same envelope.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	for _, e := range kindExemplars() {
		jr := jsonRoundTrip(t, e)
		br := binaryRoundTrip(t, e)
		if !reflect.DeepEqual(jr, br) {
			t.Errorf("%s: codec divergence:\n json %+v\n bin  %+v", e.Type, jr, br)
		}
	}
}

// TestBinaryEntryCompaction: the binary codec compacts Entry exactly as
// json.Marshal compacts RawMessage, so non-compact entries stay
// byte-equivalent across codecs.
func TestBinaryEntryCompaction(t *testing.T) {
	e := Envelope{Type: KindJournalAppend, Seq: 1,
		Entry: json.RawMessage("{ \"seq\": 1,\n  \"cycle\": 2 }")}
	jr := jsonRoundTrip(t, e)
	br := binaryRoundTrip(t, e)
	if !bytes.Equal(jr.Entry, br.Entry) {
		t.Fatalf("entry divergence: json %q, binary %q", jr.Entry, br.Entry)
	}
	// And invalid entries fail to encode on both paths.
	bad := Envelope{Type: KindJournalAppend, Entry: json.RawMessage(`{"seq":`)}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("json accepted invalid entry")
	}
	if _, err := AppendFrame(nil, &bad); err == nil {
		t.Fatal("binary accepted invalid entry")
	}
}

// TestBinaryNegotiatedOnWire: after EnableBinary the stream carries
// binary frames (magic first byte), and the peer's auto-detecting reader
// decodes them with no mode switch of its own.
func TestBinaryNegotiatedOnWire(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	if c.binWrite.Load() {
		t.Fatal("binary writes on before negotiation")
	}
	c.EnableBinary()
	want := Envelope{Type: KindSample, Node: 7, Level: 4, CPUUtil: 0.5, IntervalMS: 1000}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != frameMagic {
		t.Fatalf("first byte %#x, want frame magic %#x", buf.Bytes()[0], frameMagic)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jsonRoundTrip(t, want)) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestBinaryUnknownKindIsASendError: a kind outside the binary table is
// refused on a binary connection, and nothing reaches the stream — the
// table covers every kind, so an unknown one is a bug, not a JSON line.
func TestBinaryUnknownKindIsASendError(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(pipeConn{&buf, &buf})
	c.EnableBinary()
	if err := c.Send(Envelope{Type: "future_kind", Node: 1}); err == nil {
		t.Fatal("unknown kind sent on a binary connection")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed send wrote %d bytes: %q", buf.Len(), buf.Bytes())
	}
}

// TestMixedCodecInterleaved: one reader handles JSON and binary frames
// interleaved on the same stream.
func TestMixedCodecInterleaved(t *testing.T) {
	var buf bytes.Buffer
	js := NewConn(pipeConn{&buf, &buf})
	bin := NewConn(pipeConn{&buf, &buf})
	bin.EnableBinary()
	if err := js.Send(Envelope{Type: KindCommand, Node: 1, Level: 2, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bin.Send(Envelope{Type: KindAck, Node: 1, Level: 2, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := js.Send(Envelope{Type: KindPing}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(pipeConn{&buf, &buf})
	for _, want := range []string{KindCommand, KindAck, KindPing} {
		got, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want {
			t.Fatalf("got %q, want %q", got.Type, want)
		}
	}
}

// TestCorruptBinaryFrameIsRecoverable: a checksum-failing frame surfaces
// as a recoverable DecodeError and the next frame still decodes — the
// checksummed framing keeps the stream synchronised through payload
// corruption.
func TestCorruptBinaryFrameIsRecoverable(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(pipeConn{&buf, &buf})
	w.EnableBinary()
	if err := w.Send(Envelope{Type: KindSample, Node: 3, Level: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(Envelope{Type: KindCommand, Node: 3, Level: 1, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	stream[frameHeaderLen+1] ^= 0xA5 // flip a payload byte of frame 1

	r := NewConn(pipeConn{bytes.NewReader(stream), &bytes.Buffer{}})
	_, err := r.Recv()
	var de *DecodeError
	if !errors.As(err, &de) || !de.Recoverable() || de.Codec != CodecBinary {
		t.Fatalf("want recoverable binary DecodeError, got %v", err)
	}
	got, err := r.Recv()
	if err != nil {
		t.Fatalf("stream desynchronised after corrupt frame: %v", err)
	}
	if got.Type != KindCommand || got.Seq != 7 {
		t.Fatalf("got %+v", got)
	}
}

// TestCorruptJSONLineIsRecoverable: same contract on the JSON path.
func TestCorruptJSONLineIsRecoverable(t *testing.T) {
	stream := []byte("{\"type\":\"sam&le\",\"node\":\n{\"type\":\"ping\"}\n")
	r := NewConn(pipeConn{bytes.NewReader(stream), &bytes.Buffer{}})
	_, err := r.Recv()
	var de *DecodeError
	if !errors.As(err, &de) || !de.Recoverable() || de.Codec != CodecJSON {
		t.Fatalf("want recoverable json DecodeError, got %v", err)
	}
	got, err := r.Recv()
	if err != nil || got.Type != KindPing {
		t.Fatalf("got %+v, %v", got, err)
	}
}

// TestBinaryHeaderDamageIsFatal: a bad version or an absurd length means
// framing is lost; the error must not be recoverable.
func TestBinaryHeaderDamageIsFatal(t *testing.T) {
	bad := []byte{frameMagic, 99, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	r := NewConn(pipeConn{bytes.NewReader(bad), &bytes.Buffer{}})
	_, err := r.Recv()
	var de *DecodeError
	if !errors.As(err, &de) || de.Recoverable() {
		t.Fatalf("bad version: want fatal DecodeError, got %v", err)
	}

	huge := []byte{frameMagic, frameVersion, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(huge[2:6], maxFramePayload+1)
	r = NewConn(pipeConn{bytes.NewReader(huge), &bytes.Buffer{}})
	_, err = r.Recv()
	if !errors.As(err, &de) || de.Recoverable() {
		t.Fatalf("oversize length: want fatal DecodeError, got %v", err)
	}
}

// TestConsecutiveDecodeFailuresEscalate: a stream yielding nothing but
// decode errors turns fatal after maxDecodeFails, so a permanently
// garbled connection gets dropped and redialled instead of burning CPU
// as an error fountain forever.
func TestConsecutiveDecodeFailuresEscalate(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < maxDecodeFails+2; i++ {
		stream.WriteString("not json at all\n")
	}
	r := NewConn(pipeConn{&stream, &bytes.Buffer{}})
	for i := 0; i < maxDecodeFails-1; i++ {
		_, err := r.Recv()
		var de *DecodeError
		if !errors.As(err, &de) || !de.Recoverable() {
			t.Fatalf("error %d: want recoverable, got %v", i, err)
		}
	}
	_, err := r.Recv()
	var de *DecodeError
	if !errors.As(err, &de) || de.Recoverable() {
		t.Fatalf("error %d: want fatal escalation, got %v", maxDecodeFails, err)
	}
}

// TestBinaryDecoderSkipsUnknownTags: a payload carrying tags this decoder
// has never heard of (field-level protocol evolution) still decodes the
// fields it knows.
func TestBinaryDecoderSkipsUnknownTags(t *testing.T) {
	e := Envelope{Type: KindCommand, Node: 5, Level: 2, Seq: 3}
	payload, err := appendPayload(nil, &e, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload = appendVarintField(payload, 30, 12345)
	payload = appendBytesField(payload, 31, []byte("future bytes"))
	payload = appendKey(payload, 32, wireFixed64)
	payload = binary.LittleEndian.AppendUint64(payload, 42)
	var got Envelope
	if err := decodePayload(payload, &got, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v, want %+v", got, e)
	}
}

// TestRecvIntoReusesEnvelope: RecvInto resets state between frames, so a
// reused envelope never leaks fields across messages.
func TestRecvIntoReusesEnvelope(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(pipeConn{&buf, &buf})
	w.EnableBinary()
	if err := w.Send(Envelope{Type: KindSample, Node: 9, Level: 3, CPUUtil: 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(Envelope{Type: KindPing}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(pipeConn{&buf, &buf})
	var env Envelope
	if err := r.RecvInto(&env); err != nil {
		t.Fatal(err)
	}
	if env.Node != 9 || env.CPUUtil != 0.75 {
		t.Fatalf("first frame: %+v", env)
	}
	if err := r.RecvInto(&env); err != nil {
		t.Fatal(err)
	}
	if env.Type != KindPing || env.Node != 0 || env.CPUUtil != 0 {
		t.Fatalf("stale fields leaked into reused envelope: %+v", env)
	}
}

// raceEnabled is set by race_test.go: the detector's instrumentation
// allocates, so allocation counts mean nothing under it.
var raceEnabled bool

// TestRecvIntoAllocatesNothing holds RecvInto to its doc comment on the
// frames a steady fleet exchanges: a binary sample, command and ack decode
// into a reused envelope without a heap allocation.
func TestRecvIntoAllocatesNothing(t *testing.T) {
	const runs = 100
	frames := []Envelope{
		{Type: KindSample, Node: 12, Level: 5, MaxLevel: 9, CPUUtil: 0.625,
			MemUsed: 1 << 33, MemTotal: 48 << 30, NICBytes: 123456789, IntervalMS: 1500, Job: 11},
		{Type: KindCommand, Node: 4, Level: 3, Seq: 17},
		{Type: KindAck, Node: 4, Level: 3, Seq: 17},
	}
	var buf bytes.Buffer
	w := NewConn(pipeConn{&buf, &buf})
	w.EnableBinary()
	for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
		for _, e := range frames {
			if err := w.Send(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := NewConn(pipeConn{&buf, &buf})
	var env Envelope
	allocs := testing.AllocsPerRun(runs, func() {
		for _, want := range frames {
			if err := r.RecvInto(&env); err != nil || env.Type != want.Type || env.Seq != want.Seq {
				t.Fatalf("RecvInto = %+v, %v; want a %s", env, err, want.Type)
			}
		}
	})
	if raceEnabled {
		t.Skipf("%.1f allocs per three frames under -race: not counted", allocs)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per sample+command+ack, want 0", allocs)
	}
}

// TestAdvertises covers the negotiation helper.
func TestAdvertises(t *testing.T) {
	e := Envelope{Codecs: []string{CodecBinary, CodecJSON}}
	if !e.Advertises(CodecBinary) || !e.Advertises(CodecJSON) || e.Advertises("zstd") {
		t.Fatalf("Advertises misreads %v", e.Codecs)
	}
	var none Envelope
	if none.Advertises(CodecBinary) {
		t.Fatal("empty advertisement matched")
	}
}
