//go:build unix

package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestTrySendOverTCPKeepsFramesWhole drives TrySend into a loopback TCP
// connection whose reader has stalled, until the socket buffers are full:
// the last TrySend either declines or leaves a tail, and every TrySend
// after it declines. Once the reader resumes, a blocking Send delivers the
// tail and then its own frame, and the stream decodes frame for frame.
func TestTrySendOverTCPKeepsFramesWhole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer peer.Close()
	// Small buffers fill in a few frames rather than a few megabytes.
	raw.(*net.TCPConn).SetWriteBuffer(32 << 10)
	peer.(*net.TCPConn).SetReadBuffer(32 << 10)

	tx, rx := NewConn(raw), NewConn(peer)
	tx.EnableBinary()
	entry := json.RawMessage(`"` + strings.Repeat("e", 10_000) + `"`)
	frame := func(seq uint64) Envelope {
		return Envelope{Type: KindJournalAppend, Seq: seq, Epoch: 1, Entry: entry}
	}

	// The reader has not started: fill the socket.
	var sent uint64
	for ; ; sent++ {
		if sent > 1<<16 {
			t.Fatal("the socket never filled")
		}
		done, err := tx.TrySend(frame(sent + 1))
		if err != nil {
			t.Fatalf("TrySend %d: %v", sent+1, err)
		}
		if !done || tx.Pending() {
			if done {
				sent++ // its head is on the wire, its tail on the Conn
			}
			break
		}
	}
	tail := tx.Pending()
	for i := 0; i < 3; i++ {
		if done, err := tx.TrySend(frame(1 << 40)); done || err != nil {
			t.Fatalf("TrySend on a full socket (tail pending %v) = %v, %v; want a decline", tail, done, err)
		}
	}
	t.Logf("%d frames taken before the socket filled; ended with a tail: %v", sent, tail)

	// The reader resumes; a blocking Send finishes the stream.
	got := make(chan error, 1)
	go func() {
		var e Envelope
		for want := uint64(1); want <= sent+1; want++ {
			if err := rx.RecvInto(&e); err != nil {
				got <- err
				return
			}
			if e.Seq != want || (want <= sent && string(e.Entry) != string(entry)) {
				got <- fmt.Errorf("frame %d arrived where frame %d belonged", e.Seq, want)
				return
			}
		}
		got <- nil
	}()
	raw.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := tx.Send(Envelope{Type: KindCommand, Node: 1, Level: 2, Seq: sent + 1}); err != nil {
		t.Fatal(err)
	}
	if tx.Pending() {
		t.Error("the tail is still pending after a Send")
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not decode to the last frame")
	}
}
