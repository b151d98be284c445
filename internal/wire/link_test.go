package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
)

func TestBackoffSteps(t *testing.T) {
	cases := []struct {
		name     string
		min, max time.Duration
		resetAt  int // Reset before this Wait (-1: never)
		want     []time.Duration
	}{
		{"doubles to the cap", 1, 8, -1, []time.Duration{1, 2, 4, 8, 8, 8}},
		{"cap between steps", 2, 5, -1, []time.Duration{2, 4, 5, 5}},
		{"reset starts over", 1, 8, 3, []time.Duration{1, 2, 4, 1, 2, 4}},
		{"min equals max is a fixed period", 3, 3, -1, []time.Duration{3, 3, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := Backoff{Min: tc.min, Max: tc.max}
			for i, want := range tc.want {
				if i == tc.resetAt {
					b.Reset()
				}
				if got := max(b.next, b.Min); got != want {
					t.Fatalf("wait %d sleeps %d, want %d", i, got, want)
				}
				if !b.Wait(context.Background()) {
					t.Fatalf("wait %d gave up on a live ctx", i)
				}
			}
		})
	}
}

// TestLinkRedialPacing drives a Link against a scripted peer and reads the
// pacing off the gaps between dials: failed dials and sessions in which the
// peer says nothing double the wait up to the cap, one frame from the peer
// resets it to the floor, and Redial fires once per attempt after the first.
func TestLinkRedialPacing(t *testing.T) {
	const floor, ceiling = 5 * time.Millisecond, 40 * time.Millisecond
	// What attempt i meets: a refused dial, a peer that accepts and hangs
	// up mute, or a peer that answers the hello before hanging up.
	script := "rrmmmmhm"
	nw := faultnet.New(1)
	defer nw.Close()
	ln := nw.Listener()
	go func() {
		for _, peer := range strings.ReplaceAll(script, "r", "") {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			c := NewConn(raw)
			if _, err := c.Recv(); err == nil && peer == 'h' {
				_ = c.Send(Envelope{Type: KindHello})
			}
			c.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dials []time.Time
	redials := 0
	l := Link{
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials = append(dials, time.Now())
			if n := len(dials); n > len(script) {
				cancel()
				return nil, ctx.Err()
			} else if script[n-1] == 'r' {
				return nil, errors.New("refused")
			}
			return nw.Dial(ctx, 0)
		},
		Backoff: Backoff{Min: floor, Max: ceiling},
		Redial:  func() { redials++ },
	}
	l.Run(ctx, func(c *Conn) {
		var env Envelope
		if c.Offer(Envelope{Type: KindHello}, "") == nil {
			for c.Next(&env, nil) == nil {
			}
		}
	})

	if redials != len(script) {
		t.Errorf("Redial fired %d times over %d attempts, want %d", redials, len(dials), len(script))
	}
	// Gap i follows attempt i. Sleeps only overshoot, so a lower bound pins
	// the doubling and the cap; the reset needs an upper bound, set well
	// clear of the 40 ms it would be without one.
	wantAtLeast := []time.Duration{5, 10, 20, 40, 40, 40, 0, 10}
	for i, want := range wantAtLeast {
		gap := dials[i+1].Sub(dials[i])
		if gap < want*time.Millisecond {
			t.Errorf("gap after attempt %d (%c) = %v, want ≥ %v ms", i, script[i], gap, want)
		}
	}
	if gap := dials[7].Sub(dials[6]); gap < floor || gap > ceiling/2 {
		t.Errorf("gap after the heard-from session = %v, want the %v floor again (< %v)", gap, floor, ceiling/2)
	}
}

// TestHandshakeMatrix crosses what the client offers with what the server
// prefers, over a faultnet link, and checks the codec each side ends up
// writing — then that both directions still decode.
func TestHandshakeMatrix(t *testing.T) {
	cases := []struct {
		name                 string
		clientPref, servPref string
		reply                bool // the server sends a hello reply
		clientBin, serverBin bool
	}{
		{"binary offered, binary preferred", "", "", true, true, true},
		{"binary offered, json pinned", CodecBinary, CodecJSON, true, false, false},
		{"nothing offered, binary preferred", CodecJSON, "", true, false, false},
		{"nothing offered, json pinned", CodecJSON, CodecJSON, true, false, false},
		// A follower's leader: switches its own writes, never replies, so
		// the client stays on JSON — as it does against a peer that
		// predates the negotiation.
		{"binary offered, server never replies", "", "", false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := faultnet.New(1)
			defer nw.Close()
			ln := nw.Listener()
			client, err := Open(context.Background(), func(ctx context.Context) (net.Conn, error) { return nw.Dial(ctx, 0) })
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			raw, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			server := NewConn(raw)
			defer server.Close()

			if err := client.Offer(Envelope{Type: KindHello, Node: 7}, tc.clientPref); err != nil {
				t.Fatal(err)
			}
			first, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got := first.Advertises(CodecBinary); got != (tc.clientPref != CodecJSON) {
				t.Errorf("first frame advertises binary = %v", got)
			}
			var reply *Envelope
			if tc.reply {
				reply = &Envelope{Type: KindHello, Epoch: 3}
			}
			if err := server.Confirm(Choose(&first, tc.servPref), reply); err != nil {
				t.Fatal(err)
			}
			// One frame each way; the client's read is what completes its
			// half when a reply is on the way.
			if err := server.Send(Envelope{Type: KindCommand, Level: 2, Seq: 9}); err != nil {
				t.Fatal(err)
			}
			var env Envelope
			if tc.reply {
				if err := client.Next(&env, nil); err != nil || env.Type != KindHello || env.Epoch != 3 {
					t.Fatalf("reply = %+v, %v", env, err)
				}
			}
			if err := client.Next(&env, nil); err != nil || env.Type != KindCommand || env.Seq != 9 {
				t.Fatalf("command = %+v, %v", env, err)
			}
			if client.BinaryWrites() != tc.clientBin || server.BinaryWrites() != tc.serverBin {
				t.Errorf("binary writes client/server = %v/%v, want %v/%v",
					client.BinaryWrites(), server.BinaryWrites(), tc.clientBin, tc.serverBin)
			}
			if err := client.Send(Envelope{Type: KindAck, Seq: 9, Level: 2}); err != nil {
				t.Fatal(err)
			}
			if err := server.Next(&env, nil); err != nil || env.Type != KindAck || env.Seq != 9 {
				t.Fatalf("ack = %+v, %v", env, err)
			}
		})
	}
}

func TestNextSkipsWhatRecvIntoSurvives(t *testing.T) {
	good := `{"type":"ping"}` + "\n"
	bad := "{not json\n"
	frame, err := AppendFrame(nil, &Envelope{Type: KindPing})
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), frame...)
	torn[len(torn)-1] ^= 0xff // checksum mismatch: recoverable
	cases := []struct {
		name    string
		stream  string
		frames  int // pings delivered before the error
		skipped int
		fatal   bool // ends on a fatal DecodeError rather than io.EOF
	}{
		{"clean", good + good, 2, 0, false},
		{"noise is counted and skipped", bad + good + string(torn) + good, 2, 2, false},
		{"seven in a row survive", strings.Repeat(bad, maxDecodeFails-1) + good, 1, maxDecodeFails - 1, false},
		{"the eighth in a row escalates", strings.Repeat(bad, maxDecodeFails) + good, 0, maxDecodeFails - 1, true},
		{"a good frame restarts the count", strings.Repeat(bad, 5) + good + strings.Repeat(bad, 5) + good, 2, 10, false},
		{"lost framing is fatal at once", good + string([]byte{frameMagic, frameVersion + 1, 0, 0, 0, 0}) + good, 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(pipeConn{Reader: bytes.NewReader([]byte(tc.stream)), Writer: io.Discard})
			skipped := 0
			skip := func() { skipped++ }
			var env Envelope
			frames := 0
			err := c.Next(&env, skip)
			for ; err == nil; err = c.Next(&env, skip) {
				if env.Type != KindPing {
					t.Fatalf("frame %d = %+v", frames, env)
				}
				frames++
			}
			var de *DecodeError
			if fatal := errors.As(err, &de) && !de.Recoverable(); fatal != tc.fatal || !fatal && err != io.EOF {
				t.Errorf("ended on %v, want fatal=%v", err, tc.fatal)
			}
			if frames != tc.frames || skipped != tc.skipped {
				t.Errorf("delivered %d frames and skipped %d, want %d and %d", frames, skipped, tc.frames, tc.skipped)
			}
		})
	}
	t.Run("no callback bound", func(t *testing.T) {
		c := NewConn(pipeConn{Reader: strings.NewReader(bad + good), Writer: io.Discard})
		var env Envelope
		if err := c.Next(&env, nil); err != nil || env.Type != KindPing {
			t.Fatalf("Next = %+v, %v", env, err)
		}
	})
}

// TestCancelReleasesTheLink parks a Link in each place it can wait — a dial
// that only ctx can end, the backoff sleep, a read on a silent peer — and
// cancels: Run must return within 50 ms and leave no goroutine behind.
func TestCancelReleasesTheLink(t *testing.T) {
	nw := faultnet.New(1)
	defer nw.Close()
	mute := nw.Listener()
	defer mute.Close()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close() // never Accepts: the kernel completes the handshake, nobody speaks

	parked := make(chan struct{}, 1)
	cases := []struct {
		name string
		link Link
	}{
		{"mid-dial", Link{Dial: func(ctx context.Context) (net.Conn, error) {
			parked <- struct{}{}
			<-ctx.Done() // a black-holed peer: only ctx ends the attempt
			return nil, ctx.Err()
		}}},
		{"mid-backoff", Link{
			Dial: func(context.Context) (net.Conn, error) {
				parked <- struct{}{}
				return nil, errors.New("refused")
			},
			Backoff: Backoff{Min: time.Hour, Max: time.Hour},
		}},
		{"mid-session, faultnet", Link{Dial: func(ctx context.Context) (net.Conn, error) {
			go func() { // a peer that accepts and says nothing
				if c, err := mute.Accept(); err == nil {
					defer c.Close()
					_, _ = io.Copy(io.Discard, c)
				}
			}()
			return nw.Dial(ctx, 2)
		}}},
		{"mid-session, loopback TCP", Link{Dial: func(ctx context.Context) (net.Conn, error) {
			return DialTCP(ctx, tcp.Addr().String())
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				tc.link.Run(ctx, func(c *Conn) {
					var env Envelope
					if c.Offer(Envelope{Type: KindHello}, "") == nil {
						parked <- struct{}{}
						_ = c.Next(&env, nil)
					}
				})
			}()
			<-parked
			time.Sleep(5 * time.Millisecond) // from "about to wait" to waiting
			t0 := time.Now()
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Run still parked 5 s after cancel")
			}
			if d := time.Since(t0); d > 50*time.Millisecond {
				t.Errorf("released %v after cancel, want within 50 ms", d)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the link ran", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestOpenHookDiesWithTheConn: a session that ends by itself leaves nothing
// registered on the ctx that outlives it, however many redials that is.
func TestOpenHookDiesWithTheConn(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	closes := 0
	for i := 0; i < 3; i++ {
		c, err := Open(ctx, func(context.Context) (net.Conn, error) {
			a, b := net.Pipe()
			b.Close()
			return countingCloser{a, &closes}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	before := closes
	cancel()
	time.Sleep(10 * time.Millisecond)
	if closes != before {
		t.Errorf("cancel closed %d connections that had already been closed and unhooked", closes-before)
	}
}

type countingCloser struct {
	net.Conn
	n *int
}

func (c countingCloser) Close() error { *c.n++; return c.Conn.Close() }
