package faultnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"
)

// startEcho pumps every line the next accepted conn receives into a
// channel, closing it when the conn drops.
func startEcho(t *testing.T, ln net.Listener) <-chan string {
	t.Helper()
	lines := make(chan string, 1024)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(lines)
			return
		}
		sc := bufio.NewScanner(c)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return lines
}

func dial(t *testing.T, n *Network, key uint64) net.Conn {
	t.Helper()
	c, err := n.Dial(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// collect drains lines until the channel closes or goes quiet.
func collect(lines <-chan string, quiet time.Duration) []string {
	var got []string
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				return got
			}
			got = append(got, l)
		case <-time.After(quiet):
			return got
		}
	}
}

func TestCleanPassThrough(t *testing.T) {
	n := New(1)
	defer n.Close()
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 7)
	for i := 0; i < 10; i++ {
		if _, err := fmt.Fprintf(c, "msg-%d\n", i); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	got := collect(lines, time.Second)
	if len(got) != 10 || got[0] != "msg-0" || got[9] != "msg-9" {
		t.Errorf("got %v", got)
	}
}

// deliverUnderDrop runs one drop-faulted session and reports which
// messages arrived plus the client conn's stats.
func deliverUnderDrop(t *testing.T, seed int64, msgs int) ([]string, Stats) {
	t.Helper()
	n := New(seed)
	defer n.Close()
	n.SetDefaultProfiles(Profile{DropProb: 0.3, FirstWriteClean: true}, Profile{})
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 3)
	for i := 0; i < msgs; i++ {
		if _, err := fmt.Fprintf(c, "msg-%d\n", i); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	client, _ := n.Link(3)
	st := client.Stats()
	c.Close()
	return collect(lines, time.Second), st
}

func TestDropsAreDeterministic(t *testing.T) {
	got1, st1 := deliverUnderDrop(t, 99, 200)
	got2, st2 := deliverUnderDrop(t, 99, 200)
	if st1.Dropped == 0 || st1.Dropped == 200 {
		t.Fatalf("drop fault not exercised: %+v", st1)
	}
	if st1 != st2 {
		t.Errorf("same seed, different stats: %+v vs %+v", st1, st2)
	}
	if len(got1) != len(got2) {
		t.Fatalf("same seed, different deliveries: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Errorf("delivery %d differs: %q vs %q", i, got1[i], got2[i])
		}
	}
	got3, _ := deliverUnderDrop(t, 100, 200)
	if len(got3) == len(got1) {
		t.Log("different seeds delivered equal counts (possible, not an error)")
	}
}

func TestFirstWriteCleanProtectsHello(t *testing.T) {
	n := New(5)
	defer n.Close()
	n.SetDefaultProfiles(Profile{DropProb: 1, FirstWriteClean: true}, Profile{})
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 1)
	fmt.Fprint(c, "hello\n")
	fmt.Fprint(c, "sample\n")
	c.Close()
	got := collect(lines, time.Second)
	if len(got) != 1 || got[0] != "hello" {
		t.Errorf("got %v, want only the protected hello", got)
	}
}

func TestKillMidWrite(t *testing.T) {
	n := New(11)
	defer n.Close()
	n.SetDefaultProfiles(Profile{KillProb: 1}, Profile{})
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 1)
	if _, err := fmt.Fprint(c, "a-long-enough-message\n"); err == nil {
		t.Error("kill-faulted write succeeded")
	}
	if _, err := fmt.Fprint(c, "after-kill\n"); err == nil {
		t.Error("write on killed conn succeeded")
	}
	got := collect(lines, time.Second)
	for _, l := range got {
		if l == "a-long-enough-message" {
			t.Error("full message delivered despite mid-write kill")
		}
	}
}

func TestCorruptFlipsAByte(t *testing.T) {
	n := New(13)
	defer n.Close()
	n.SetDefaultProfiles(Profile{CorruptProb: 1}, Profile{})
	ln := n.Listener()
	recv := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		nn, _ := c.Read(buf)
		recv <- buf[:nn]
	}()
	c := dial(t, n, 1)
	msg := []byte("abcdefgh\n")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if bytes.Equal(got, msg) {
			t.Error("corrupt-faulted write delivered intact")
		}
		if len(got) != len(msg) {
			t.Errorf("corruption changed length: %d vs %d", len(got), len(msg))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nothing delivered")
	}
}

func TestTruncateDeliversPrefix(t *testing.T) {
	n := New(17)
	defer n.Close()
	n.SetDefaultProfiles(Profile{TruncateProb: 1}, Profile{})
	ln := n.Listener()
	recv := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		nn, _ := c.Read(buf)
		recv <- buf[:nn]
	}()
	c := dial(t, n, 1)
	msg := []byte("0123456789abcdef\n")
	wn, err := c.Write(msg)
	if err != nil || wn != len(msg) {
		t.Fatalf("truncated write must report full success, got n=%d err=%v", wn, err)
	}
	select {
	case got := <-recv:
		if len(got) >= len(msg) {
			t.Errorf("delivered %d bytes, want a proper prefix of %d", len(got), len(msg))
		}
		if !bytes.HasPrefix(msg, got) {
			t.Errorf("delivered %q is not a prefix of %q", got, msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nothing delivered")
	}
}

func TestAsymmetricPartitionAndHeal(t *testing.T) {
	n := New(23)
	defer n.Close()
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 9)

	n.Partition(9, true, false) // agent→manager down only
	fmt.Fprint(c, "during-partition\n")
	if got := collect(lines, 300*time.Millisecond); len(got) != 0 {
		t.Errorf("partitioned writes delivered: %v", got)
	}
	n.Heal(9)
	fmt.Fprint(c, "after-heal\n")
	got := collect(lines, time.Second)
	if len(got) != 1 || got[0] != "after-heal" {
		t.Errorf("after heal got %v", got)
	}
	client, server := n.Link(9)
	if st := client.Stats(); st.Blackhole != 1 {
		t.Errorf("client blackhole count = %d, want 1", st.Blackhole)
	}
	if st := server.Stats(); st.Blackhole != 0 {
		t.Errorf("asymmetric partition blackholed the server side: %+v", st)
	}
}

func TestPartitionSurvivesReconnect(t *testing.T) {
	n := New(29)
	defer n.Close()
	ln := n.Listener()
	go func() {
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()
	n.Partition(4, true, false)
	c := dial(t, n, 4) // dialled after the partition was installed
	client, _ := n.Link(4)
	done := make(chan struct{})
	go func() { fmt.Fprint(c, "x\n"); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blackholed write blocked")
	}
	if st := client.Stats(); st.Blackhole != 1 {
		t.Errorf("partition not applied to fresh dial: %+v", st)
	}
}

func TestSlowReaderBackpressureAndWriteDeadline(t *testing.T) {
	n := New(31)
	defer n.Close()
	// The dialer reads at ~64 B/s; the server writes a message larger
	// than one sip under a short write deadline: it must time out.
	n.SetDefaultProfiles(Profile{ReadBytesPerSec: 64}, Profile{})
	ln := n.Listener()
	srvCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srvCh <- c
	}()
	c := dial(t, n, 2)
	go func() { // slow reader keeps draining, just slowly
		buf := make([]byte, 256)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	srv := <-srvCh
	if err := srv.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("x"), 512)
	start := time.Now()
	_, err := srv.Write(append(msg, '\n'))
	if err == nil {
		t.Fatal("write to slow reader finished under deadline; throttle ineffective")
	}
	var ne net.Error
	if !isTimeout(err, &ne) {
		t.Errorf("err = %v, want timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

func isTimeout(err error, ne *net.Error) bool {
	if e, ok := err.(net.Error); ok {
		*ne = e
		return e.Timeout()
	}
	return false
}

func TestNetworkKillBreaksBothEnds(t *testing.T) {
	n := New(37)
	defer n.Close()
	lines := startEcho(t, n.Listener())
	c := dial(t, n, 6)
	fmt.Fprint(c, "pre\n")
	// Kill is a reset: it discards what is still in the link's buffer, so
	// let "pre" arrive first.
	var got []string
	select {
	case l := <-lines:
		got = append(got, l)
	case <-time.After(2 * time.Second):
		t.Fatal("pre never arrived")
	}
	if !n.Kill(6) {
		t.Fatal("no live link to kill")
	}
	if _, err := fmt.Fprint(c, "post\n"); err == nil {
		t.Error("write on killed link succeeded")
	}
	got = append(got, collect(lines, time.Second)...)
	if len(got) != 1 || got[0] != "pre" {
		t.Errorf("got %v", got)
	}
	if n.Kill(999) {
		t.Error("killed a link that never existed")
	}
}

func TestDialAfterCloseFails(t *testing.T) {
	n := New(41)
	n.Close()
	if _, err := n.Dial(context.Background(), 1); err == nil {
		t.Error("dial on closed network succeeded")
	}
	n.Close() // idempotent
}

// TestListenerCloseKeepsNetworkAlive is the manager-restart contract:
// closing one listener stops its Accept with net.ErrClosed but leaves the
// network dialable, and a dial parked while no listener was accepting is
// delivered to the next listener — so agents that redialled during a
// manager crash are picked up by the restarted manager.
func TestListenerCloseKeepsNetworkAlive(t *testing.T) {
	n := New(53)
	defer n.Close()

	ln1 := n.Listener()
	errCh := make(chan error, 1)
	go func() { _, err := ln1.Accept(); errCh <- err }()
	ln1.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("closed listener Accept err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not return after listener close")
	}

	// Dial with the manager "down": the connection parks in the accept
	// queue.
	c := dial(t, n, 9)
	go fmt.Fprint(c, "hello-from-downtime\n")

	// The "restarted manager" opens a fresh listener and receives it.
	lines := startEcho(t, n.Listener())
	got := collect(lines, 2*time.Second)
	if len(got) != 1 || got[0] != "hello-from-downtime" {
		t.Errorf("restarted listener got %v", got)
	}
}

func TestDialCancelledContext(t *testing.T) {
	n := New(43)
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Dial(ctx, 1); err == nil {
		t.Error("dial with cancelled context succeeded")
	}
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }
