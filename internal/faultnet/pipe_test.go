package faultnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// Tests for the link itself (pipe.go) and for what Conn derives from it:
// the bounded buffer, its deadlines and close semantics, the rendezvous
// toward a throttled reader, and the seeded fault stream.

// pattern returns n bytes whose value depends on their position, so a
// reordered, repeated or lost byte shows.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// wantTimeout fails unless err is what a net.Conn deadline must produce.
func wantTimeout(t *testing.T, op string, err error) {
	t.Helper()
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("%s: err = %v, want an os.ErrDeadlineExceeded net.Error", op, err)
	}
}

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

func TestLinkOrderedAcrossWrapAround(t *testing.T) {
	a, b := newLink(Profile{}, Profile{}, 1)
	// Chunks of 200 against a 512-byte ring, drained by 150: the read and
	// write indices wrap at different offsets every lap.
	want := pattern(200 * 64)
	var got []byte
	buf := make([]byte, 150)
	for off := 0; off < len(want); off += 200 {
		if n, err := a.Write(want[off : off+200]); n != 200 || err != nil {
			t.Fatalf("write at %d: n=%d err=%v", off, n, err)
		}
		for need := off + 100 - len(got); need > 0; need = off + 100 - len(got) {
			// Leave 100 bytes behind, so the ring never empties and
			// its indices are never reset.
			n, err := b.Read(buf[:min(need, len(buf))])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:n]...)
		}
	}
	a.Close()
	rest, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, rest...); !bytes.Equal(got, want) {
		t.Errorf("delivered %d bytes, differ from the %d written", len(got), len(want))
	}
}

func TestLinkLargeWriteBlocksAndArrivesWhole(t *testing.T) {
	a, b := newLink(Profile{}, Profile{}, 1)
	want := pattern(10 * pipeCap)
	wrote := make(chan error, 1)
	go func() {
		n, err := a.Write(want)
		if err == nil && n != len(want) {
			err = io.ErrShortWrite
		}
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("a write of 10× the capacity returned with nobody reading (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("large write arrived mangled")
	}
}

func TestLinkDeadlines(t *testing.T) {
	a, b := newLink(Profile{}, Profile{}, 1)
	full := make([]byte, pipeCap)
	buf := make([]byte, 8)

	// Set before the call: a deadline already past fails at once, one
	// ahead fails when it arrives.
	b.SetReadDeadline(time.Now().Add(-time.Second))
	_, err := b.Read(buf)
	wantTimeout(t, "read, deadline past", err)
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	within(t, 2*time.Second, "read, deadline ahead", func() { _, err = b.Read(buf) })
	wantTimeout(t, "read, deadline ahead", err)

	if _, err := a.Write(full); err != nil { // fills the ring without blocking
		t.Fatal(err)
	}
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	var n int
	within(t, 2*time.Second, "write, deadline ahead", func() { n, err = a.Write(full) })
	wantTimeout(t, "write, deadline ahead", err)
	if n != 0 {
		t.Errorf("write into a full ring buffered %d bytes", n)
	}

	// Set while the call is blocked: both directions, then cleared.
	a.SetDeadline(time.Time{})
	b.SetDeadline(time.Time{})
	if _, err := io.ReadFull(b, full); err != nil { // drain
		t.Fatal(err)
	}
	rerr, werr := make(chan error, 1), make(chan error, 1)
	go func() { _, err := b.Read(buf); rerr <- err }()
	if _, err := b.Write(full); err != nil {
		t.Fatal(err)
	}
	go func() { _, err := b.Write(full); werr <- err }()
	time.Sleep(20 * time.Millisecond) // let both block
	b.SetDeadline(time.Now().Add(20 * time.Millisecond))
	for op, ch := range map[string]chan error{"blocked read": rerr, "blocked write": werr} {
		select {
		case err := <-ch:
			wantTimeout(t, op, err)
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: a deadline set while blocked never fired", op)
		}
	}

	// A timed-out conn is still usable once the deadline is lifted.
	b.SetDeadline(time.Time{})
	if _, err := a.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "after" {
		t.Errorf("after the deadline was lifted: %q, %v", buf[:n], err)
	}
}

func TestLinkCloseSemantics(t *testing.T) {
	buf := make([]byte, 64)

	// Peer close: what was written drains, then io.EOF; writes fail.
	a, b := newLink(Profile{}, Profile{}, 1)
	a.Write([]byte("last words"))
	a.Close()
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "last words" {
		t.Errorf("read after peer close: %q, %v", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Errorf("drained read after peer close: %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Error("write to a closed peer succeeded")
	}

	// Local close: both calls fail with io.ErrClosedPipe, buffered or not.
	a, b = newLink(Profile{}, Profile{}, 1)
	a.Write([]byte("unread"))
	b.Close()
	if _, err := b.Read(buf); err != io.ErrClosedPipe {
		t.Errorf("read on a locally closed conn: %v, want io.ErrClosedPipe", err)
	}
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Errorf("write on a locally closed conn: %v, want io.ErrClosedPipe", err)
	}

	// Either close wakes a blocked read and a blocked write.
	for _, closer := range []string{"local", "peer"} {
		a, b = newLink(Profile{}, Profile{}, 1)
		b.Write(make([]byte, pipeCap)) // b's next write blocks
		rerr, werr := make(chan error, 1), make(chan error, 1)
		go func() { _, err := b.Read(buf); rerr <- err }()
		go func() { _, err := b.Write([]byte("x")); werr <- err }()
		time.Sleep(20 * time.Millisecond)
		wantRead := io.ErrClosedPipe
		if closer == "local" {
			b.Close()
		} else {
			a.Close()
			wantRead = io.EOF
		}
		for op, ch := range map[string]chan error{"read": rerr, "write": werr} {
			select {
			case err := <-ch:
				if op == "read" && err != wantRead || op == "write" && err != io.ErrClosedPipe {
					t.Errorf("%s close, blocked %s: %v", closer, op, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s close left a blocked %s asleep", closer, op)
			}
		}
	}
}

func TestLinkConcurrentWritersNeverInterleave(t *testing.T) {
	a, b := newLink(Profile{}, Profile{}, 1)
	// Frames longer than the ring, so each writer must block mid-frame —
	// the moment a second writer could slip in.
	const frame, perWriter = 3*pipeCap + 17, 40
	var wg sync.WaitGroup
	for _, fill := range []byte{'A', 'B'} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := bytes.Repeat([]byte{fill}, frame)
			for i := 0; i < perWriter; i++ {
				if _, err := a.Write(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); a.Close() }()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*perWriter*frame {
		t.Fatalf("delivered %d bytes, want %d", len(got), 2*perWriter*frame)
	}
	for off := 0; off < len(got); off += frame {
		if f := got[off : off+frame]; bytes.Count(f, f[:1]) != frame {
			t.Fatalf("frame at %d mixes both writers", off)
		}
	}
}

// TestThrottledReaderIsARendezvous is the one semantic the slow-reader
// proofs lean on: toward a reader with ReadBytesPerSec set, a write
// returns only after its last byte was read; toward any other reader it
// returns at once. SetProfile moves a live link between the two.
func TestThrottledReaderIsARendezvous(t *testing.T) {
	msg := []byte("forty-eight bytes, about one command frame long\n")
	a, b := newLink(Profile{}, Profile{}, 1)

	within(t, 2*time.Second, "write toward an unthrottled reader", func() {
		if _, err := a.Write(msg); err != nil {
			t.Error(err)
		}
	})
	if _, err := io.ReadFull(b, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}

	b.SetProfile(Profile{ReadBytesPerSec: 4000}) // sips of 400 B: one Read takes the frame
	wrote := make(chan error, 1)
	go func() { _, err := a.Write(msg); wrote <- err }()
	select {
	case err := <-wrote:
		t.Fatalf("write toward a throttled reader returned before anything was read (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	buf := make([]byte, len(msg))
	if _, err := b.Read(buf[:len(msg)-1]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wrote:
		t.Fatalf("write returned with its last byte unread (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := b.Read(buf[len(msg)-1:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still blocked after its last byte was read")
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("read %q", buf)
	}

	// A write blocked in the rendezvous honours its deadline, and lifting
	// the throttle releases one.
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	var err error
	within(t, 2*time.Second, "rendezvous write under a deadline", func() { _, err = a.Write(msg) })
	wantTimeout(t, "rendezvous write", err)
	a.SetWriteDeadline(time.Time{})
	go func() { _, err := a.Write(msg); wrote <- err }()
	time.Sleep(20 * time.Millisecond)
	b.SetProfile(Profile{})
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lifting the throttle did not release the blocked write")
	}
}

// faultedSession pushes 1000 numbered messages through every fault kind at
// once, reading concurrently so that delivery timing varies from run to
// run, and returns what arrived and what each end counted.
func faultedSession(t *testing.T, seed uint64) ([]byte, Stats) {
	t.Helper()
	return faultedSessionVia(t, seed, Profile{
		Jitter: time.Nanosecond, DropProb: 0.15, CorruptProb: 0.15, TruncateProb: 0.15,
	}, false)
}

// faultedSessionVia is faultedSession under prof; with try set, each
// message goes through TryWrite first and through Write only when
// TryWrite declines.
func faultedSessionVia(t *testing.T, seed uint64, prof Profile, try bool) ([]byte, Stats) {
	t.Helper()
	a, b := newLink(prof, Profile{}, seed)
	got := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(b)
		got <- all
	}()
	msg := pattern(96)
	for i := 0; i < 1000; i++ {
		msg[0], msg[1] = byte(i), byte(i>>8)
		if try {
			n, err := a.TryWrite(msg)
			if err != nil {
				t.Fatalf("try-write %d: %v", i, err)
			}
			if n > 0 {
				continue
			}
		}
		if _, err := a.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	a.Close()
	return <-got, a.Stats()
}

// TestFaultStreamIsAFunctionOfSeed: drop, corrupt and truncate indices,
// cut points and flipped bytes depend on the seed and the write index
// alone, never on how the reader was scheduled.
func TestFaultStreamIsAFunctionOfSeed(t *testing.T) {
	got1, st1 := faultedSession(t, 42)
	got2, st2 := faultedSession(t, 42)
	if st1.Writes != 1000 || st1.Dropped == 0 || st1.Corrupted == 0 || st1.Truncated == 0 {
		t.Fatalf("fault kinds not all exercised: %+v", st1)
	}
	if st1 != st2 {
		t.Errorf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if !bytes.Equal(got1, got2) {
		t.Errorf("same seed, different delivered bytes (%d vs %d)", len(got1), len(got2))
	}
	got3, st3 := faultedSession(t, 43)
	if st3 == st1 && bytes.Equal(got3, got1) {
		t.Error("a different seed replayed the same fault sequence")
	}

	// TryWrite draws what Write draws: a session whose frames go through
	// TryWrite wherever the link has room (Write where it declines) sees
	// the same faults, delivers the same bytes and counts the same Stats
	// as one that only calls Write. Latency and jitter always decline, so
	// this profile has neither.
	prof := Profile{DropProb: 0.15, CorruptProb: 0.15, TruncateProb: 0.15}
	gotW, stW := faultedSessionVia(t, 42, prof, false)
	gotT, stT := faultedSessionVia(t, 42, prof, true)
	if stW.Writes != 1000 || stW.Dropped == 0 || stW.Corrupted == 0 || stW.Truncated == 0 {
		t.Fatalf("fault kinds not all exercised without jitter: %+v", stW)
	}
	if stT != stW {
		t.Errorf("TryWrite and Write drew different faults: %+v vs %+v", stT, stW)
	}
	if !bytes.Equal(gotT, gotW) {
		t.Errorf("TryWrite and Write delivered different bytes (%d vs %d)", len(gotT), len(gotW))
	}

	// Kill indices too: the write that kills the link is the same one on
	// every run, whether it went through Write or TryWrite, and the two
	// ends of a link draw from different streams.
	killedAt := func(seed uint64, serverEnd, try bool) int {
		prof := Profile{KillProb: 0.02}
		w, r := newLink(prof, prof, seed)
		if serverEnd {
			w, r = r, w
		}
		go io.Copy(io.Discard, r)
		msg := []byte("sixteen byte msg")
		for i := 1; ; i++ {
			if try {
				n, err := w.TryWrite(msg)
				if err != nil {
					return i
				}
				if n > 0 {
					continue
				}
			}
			if _, err := w.Write(msg); err != nil {
				return i
			}
		}
	}
	k := killedAt(42, false, false)
	if again := killedAt(42, false, false); again != k {
		t.Errorf("same seed killed the link at write %d, then at write %d", k, again)
	}
	if viaTry := killedAt(42, false, true); viaTry != k {
		t.Errorf("Write killed the link at write %d, TryWrite at write %d", k, viaTry)
	}
	if killedAt(42, true, false) == k && killedAt(43, true, false) == killedAt(43, false, false) {
		t.Error("the two ends of a link share one fault stream")
	}
}

// TestTryWriteDeclinesWithoutDrawing: each way TryWrite can decline — a
// full ring, a throttled reader, a profile with latency, a closed end, a
// write in progress — writes nothing and draws no roll, so the next
// accepted write is the one a Write-only session would have made there.
func TestTryWriteDeclinesWithoutDrawing(t *testing.T) {
	msg := pattern(40)
	cases := []struct {
		name  string
		setup func(a, b *Conn) (undo func())
	}{
		{"full ring", func(a, b *Conn) func() {
			// Filled on the link itself, past the fault stream: the filler draws nothing.
			if n, err := a.wr.write(pattern(pipeCap - len(msg) + 1)); err != nil || n != pipeCap-len(msg)+1 {
				t.Fatalf("filling the ring: %d, %v", n, err)
			}
			return func() { io.ReadFull(b, make([]byte, pipeCap-len(msg)+1)) }
		}},
		{"throttled reader", func(a, b *Conn) func() {
			b.SetProfile(Profile{ReadBytesPerSec: 1})
			return func() { b.SetProfile(Profile{}) }
		}},
		{"latency", func(a, b *Conn) func() {
			a.SetProfile(Profile{Latency: time.Millisecond, DropProb: 0.5})
			return func() { a.SetProfile(Profile{DropProb: 0.5}) }
		}},
		{"write in progress", func(a, b *Conn) func() {
			a.wr.wmu.Lock()
			return a.wr.wmu.Unlock
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two links on one seed: the reference only ever writes, the
			// other declines first. Their next writes must match roll for
			// roll.
			ref, refPeer := newLink(Profile{DropProb: 0.5}, Profile{}, 9)
			a, b := newLink(Profile{DropProb: 0.5}, Profile{}, 9)
			undo := tc.setup(a, b)
			before := a.Stats()
			if n, err := a.TryWrite(msg); n != 0 || err != nil {
				t.Fatalf("TryWrite = %d, %v; want a decline (0, nil)", n, err)
			}
			if got := a.Stats(); got != before {
				t.Fatalf("a decline drew: stats %+v -> %+v", before, got)
			}
			undo()
			for i := 0; i < 32; i++ {
				msg[0] = byte(i)
				n, err := a.TryWrite(msg)
				if err != nil || n != len(msg) {
					t.Fatalf("write %d after the decline: TryWrite = %d, %v", i, n, err)
				}
				if _, err := ref.Write(msg); err != nil {
					t.Fatal(err)
				}
				got, want := make([]byte, 64), make([]byte, 64)
				gn, _ := readAvailable(b, got)
				wn, _ := readAvailable(refPeer, want)
				if !bytes.Equal(got[:gn], want[:wn]) {
					t.Fatalf("write %d after the decline delivered %d bytes, the reference %d", i, gn, wn)
				}
			}
			if a.Stats() != ref.Stats() {
				t.Errorf("after the decline the streams diverged: %+v vs %+v", a.Stats(), ref.Stats())
			}
		})
	}

	t.Run("closed end", func(t *testing.T) {
		for _, closeEnd := range []func(a, b *Conn){
			func(a, b *Conn) { a.Close() },
			func(a, b *Conn) { b.Close() },
		} {
			a, b := newLink(Profile{DropProb: 0.5}, Profile{}, 9)
			closeEnd(a, b)
			if n, err := a.TryWrite(msg); n != 0 || err != nil {
				t.Fatalf("TryWrite on a closed link = %d, %v; want a decline", n, err)
			}
			if st := a.Stats(); st.Writes != 0 {
				t.Errorf("a decline on a closed link drew: %+v", st)
			}
			if _, err := a.Write(msg); err == nil && a.Stats().Dropped == 0 {
				t.Error("Write on the closed link succeeded: the error TryWrite left to it is gone")
			}
		}
	})
}

// readAvailable reads what the link holds right now (a drop leaves it
// empty): one Read under a short deadline.
func readAvailable(c *Conn, p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	defer c.SetReadDeadline(time.Time{})
	return c.Read(p)
}

// TestWireFramesCrossTheLink: frames far larger than the ring — a full
// JSON status reply, a binary frame at wire's 16 MiB cap — arrive intact
// through it, as do the small frames queued behind them.
func TestWireFramesCrossTheLink(t *testing.T) {
	var full wire.StatusReply
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
	status := wire.Envelope{Type: wire.KindStatus, Stats: &full}
	capped := wire.Envelope{Type: wire.KindJournalAppend, Seq: 3, Epoch: 2,
		Entry: json.RawMessage(`"` + strings.Repeat("x", 16<<20-64) + `"`)}
	small := wire.Envelope{Type: wire.KindCommand, Node: 4, Level: 3, Seq: 17}

	a, b := newLink(Profile{}, Profile{}, 1)
	tx, rx := wire.NewConn(a), wire.NewConn(b)
	sent := make(chan error, 1)
	go func() {
		err := tx.Send(status) // JSON: the codec every connection starts in
		tx.EnableBinary()
		for _, e := range []wire.Envelope{small, capped, small} {
			if err == nil {
				err = tx.Send(e)
			}
		}
		sent <- err
	}()
	for _, want := range []wire.Envelope{status, small, capped, small} {
		got, err := rx.Recv()
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s frame (%d entry bytes) mangled in transit", want.Type, len(want.Entry))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
