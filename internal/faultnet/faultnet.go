// Package faultnet is a deterministic fault-injecting network layer for
// testing the agent/manager daemon plane under adversarial conditions.
//
// It provides two pieces:
//
//   - Conn: a net.Conn wrapper that injects configurable write latency and
//     jitter, probabilistic message drops, mid-write connection kills, byte
//     corruption and truncation, directional blackholes (for asymmetric
//     partitions) and slow-reader throttling (backpressure).
//   - Network: an in-memory listener/dialer pair, so an entire
//     managerd+agentd cluster runs in one process with no sockets, every
//     connection routed through fault-injecting Conns.
//
// A link is two bounded byte rings, one per direction (pipe.go). A Write
// copies into the peer's ring and returns, as a send into a kernel socket
// buffer does, and blocks only while the ring is full; nothing is handed
// over goroutine to goroutine. The exception is derived, not configured: a
// direction whose reader is throttled (Profile.ReadBytesPerSec > 0) is a
// rendezvous — the write returns only once the slow reader has drained it —
// so a wedged host looks like one whose socket buffer is already full, and
// the writer's deadline is what bounds the stall. Deadlines are the link's
// own: they apply to calls already blocked and fail them with
// os.ErrDeadlineExceeded.
//
// Every random decision is drawn from a PCG stream seeded deterministically
// from (network seed, connection key, dial attempt), so a failure sequence
// replays exactly for a given seed regardless of wall-clock timing: the k-th
// write on the j-th connection of agent i sees the same fault on every run.
//
// The wire protocol (newline-delimited JSON for the handshake, length-
// prefixed binary frames after it) sends one message — or one coalesced
// batch — per Write call, so per-Write fault rolls are per-message fault
// rolls.
package faultnet

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Profile configures the fault behaviour of one direction of a connection
// (the wrapped side's writes, plus its read throttle). The zero value is a
// clean, transparent conn.
type Profile struct {
	// Latency is added to every delivered write; Jitter adds a further
	// uniformly random [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration

	// DropProb is the probability a write (= one protocol message) is
	// silently discarded: the writer sees success, the peer sees nothing.
	DropProb float64

	// KillProb is the probability a write delivers only a prefix of its
	// payload and then kills the connection (both directions), modelling a
	// connection reset mid-message: the peer still reads the prefix, then
	// io.EOF; whatever the peer had sent and the killer had not yet read
	// is discarded.
	KillProb float64

	// CorruptProb is the probability one random byte of a write is
	// flipped before delivery.
	CorruptProb float64

	// TruncateProb is the probability a write delivers only a random
	// proper prefix (the connection stays up, desynchronising the
	// newline framing exactly as a half-delivered TCP segment would).
	TruncateProb float64

	// ReadBytesPerSec throttles this side's reads to roughly the given
	// sustained rate (0 = unlimited). A throttled reader has no buffer to
	// hide behind: the peer's writes block until it has drained them, so
	// a slow reader exerts real backpressure.
	ReadBytesPerSec int

	// FirstWriteClean exempts the connection's first write from drop,
	// kill, corrupt and truncate rolls (latency still applies). The first
	// write carries the protocol hello; protecting it keeps fault-rate
	// accounting focused on the steady-state sample/command stream.
	FirstWriteClean bool
}

// clean reports whether the profile injects no faults at all.
func (p Profile) clean() bool {
	return p.Latency == 0 && p.Jitter == 0 && p.DropProb == 0 && p.KillProb == 0 &&
		p.CorruptProb == 0 && p.TruncateProb == 0 && p.ReadBytesPerSec == 0
}

// Stats counts the faults a Conn actually injected. Harness accounting
// checks compare these against the daemon's own counters.
type Stats struct {
	Writes    int // writes attempted
	Dropped   int // writes silently discarded
	Killed    int // writes that killed the connection
	Corrupted int // writes with a flipped byte
	Truncated int // writes delivered as a proper prefix
	Blackhole int // writes discarded by a partition
}

// add folds another counter set into s.
func (s *Stats) add(o Stats) {
	s.Writes += o.Writes
	s.Dropped += o.Dropped
	s.Killed += o.Killed
	s.Corrupted += o.Corrupted
	s.Truncated += o.Truncated
	s.Blackhole += o.Blackhole
}

// Conn is one end of an in-memory link with fault injection. It implements
// net.Conn. Its Write faults model that side's outbound path, its read
// throttle models that side's inbound drain rate.
type Conn struct {
	rd, wr *half // inbound and outbound direction; the peer holds them swapped

	mu    sync.Mutex // guards rng, prof, stats, wrote
	rng   *rand.Rand
	prof  Profile
	stats Stats
	wrote bool

	blackhole atomic.Bool // partition: discard writes silently
	killed    atomic.Bool
}

// newLink builds the two ends of one link. The fault streams of the two
// ends are independent PCG sequences of the one seed.
func newLink(client, server Profile, seed uint64) (c, s *Conn) {
	up, down := newHalf(), newHalf()
	c = &Conn{rd: down, wr: up, rng: rand.New(rand.NewPCG(seed, 0))}
	s = &Conn{rd: up, wr: down, rng: rand.New(rand.NewPCG(splitmix64(seed), 0))}
	c.SetProfile(client)
	s.SetProfile(server)
	return c, s
}

// Stats returns a snapshot of the faults injected so far.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SetProfile swaps the fault profile at runtime (e.g. turning a healthy
// agent into a slow reader mid-soak).
func (c *Conn) SetProfile(p Profile) {
	c.mu.Lock()
	c.prof = p
	c.mu.Unlock()
	c.rd.setRate(p.ReadBytesPerSec)
}

// SetBlackhole silently discards (true) or delivers (false) this side's
// writes: one direction of an asymmetric partition. The connection stays
// established — exactly the failure a switch ACL or overflowing queue
// produces, as opposed to a clean close.
func (c *Conn) SetBlackhole(on bool) { c.blackhole.Store(on) }

// fault is the one fault kind a write suffers, if any.
type fault uint8

const (
	faultDrop fault = iota + 1 // the zero fault is none
	faultKill
	faultCorrupt
	faultTruncate
	faultBlackhole
)

// rolls is everything the fault stream decides about one write.
type rolls struct {
	fault     fault
	delay     time.Duration
	cut, flip int
}

// draw takes one write's rolls from the connection's stream and counts the
// fault. Every roll is drawn whatever the outcome, so the per-connection
// fault sequence depends only on the write index, never on timing. c.mu is
// held.
func (c *Conn) draw(p []byte) rolls {
	prof := c.prof
	first := !c.wrote
	c.wrote = true
	c.stats.Writes++
	var r rolls
	if prof.Latency > 0 || prof.Jitter > 0 {
		r.delay = prof.Latency
		if prof.Jitter > 0 {
			r.delay += time.Duration(c.rng.Int64N(int64(prof.Jitter)))
		}
	}
	roll := c.rng.Float64()
	if len(p) > 1 {
		r.cut = 1 + c.rng.IntN(len(p)-1)
	}
	if len(p) > 0 {
		r.flip = c.rng.IntN(len(p))
	}
	if c.blackhole.Load() {
		c.stats.Blackhole++
		r.fault = faultBlackhole
		return r
	}
	if first && prof.FirstWriteClean {
		roll = 2 // outside every probability band
	}
	// The bands partition [0,1): a write suffers at most one fault kind.
	pDrop := prof.DropProb
	pKill := pDrop + prof.KillProb
	pCorrupt := pKill + prof.CorruptProb
	pTrunc := pCorrupt + prof.TruncateProb
	switch {
	case roll < pDrop:
		r.fault = faultDrop
		c.stats.Dropped++
	case roll < pKill:
		r.fault = faultKill
		c.stats.Killed++
	case roll < pCorrupt:
		r.fault = faultCorrupt
		c.stats.Corrupted++
	case roll < pTrunc:
		r.fault = faultTruncate
		c.stats.Truncated++
	}
	return r
}

// deliver applies a write's drawn fault, putting bytes on the link with
// write.
func (c *Conn) deliver(p []byte, r rolls, write func([]byte) (int, error)) (int, error) {
	switch r.fault {
	case faultDrop, faultBlackhole:
		return len(p), nil
	case faultKill:
		if r.cut > 0 {
			_, _ = write(p[:r.cut])
		}
		c.killed.Store(true)
		c.Close()
		return r.cut, fmt.Errorf("faultnet: connection killed mid-write")
	case faultCorrupt:
		q := make([]byte, len(p))
		copy(q, p)
		if len(q) > 0 {
			q[r.flip] ^= 0x20
		}
		p = q
	case faultTruncate:
		if r.cut > 0 {
			n, err := write(p[:r.cut])
			if err != nil {
				return n, err
			}
		}
		// Report full delivery: the writer believes the message left,
		// as with bytes parked in a kernel buffer at connection loss.
		return len(p), nil
	}
	return write(p)
}

// Write applies the fault schedule to one outbound message.
func (c *Conn) Write(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, fmt.Errorf("faultnet: connection killed")
	}
	c.mu.Lock()
	r := c.draw(p)
	c.mu.Unlock()
	if r.delay > 0 {
		time.Sleep(r.delay)
	}
	return c.deliver(p, r, c.wr.write)
}

// TryWrite is Write for a caller that must not block: it writes all of p
// now, or declines with (0, nil) and neither writes nor draws anything. It
// declines while another write holds the link, while the ring lacks room
// for p, toward a throttled reader (a rendezvous always blocks), under a
// profile with latency or jitter (a delayed write blocks), and on a closed
// or killed end, whose error the next Write reports. When it writes it
// draws exactly the rolls Write would, so the fault stream is the same
// function of the write index whichever of the two a frame went through.
func (c *Conn) TryWrite(p []byte) (int, error) {
	if len(p) == 0 || c.killed.Load() {
		return 0, nil
	}
	c.mu.Lock()
	if c.prof.Latency > 0 || c.prof.Jitter > 0 || !c.wr.reserve(len(p)) {
		c.mu.Unlock()
		return 0, nil
	}
	r := c.draw(p)
	c.mu.Unlock()
	defer c.wr.wmu.Unlock()
	return c.deliver(p, r, c.wr.put)
}

// Read delivers inbound bytes. A throttled reader takes them in small sips
// and sleeps in proportion, and the peer's write stays blocked until the
// last sip.
func (c *Conn) Read(p []byte) (int, error) {
	n, rate, err := c.rd.read(p)
	if rate > 0 && n > 0 {
		time.Sleep(time.Duration(n) * time.Second / time.Duration(rate))
	}
	return n, err
}

// Close closes this end: its blocked and future calls fail with
// io.ErrClosedPipe, the peer reads what this end had written and then
// io.EOF, and the peer's writes fail.
func (c *Conn) Close() error {
	c.rd.closeRead()
	c.wr.closeWrite()
	return nil
}

// LocalAddr returns the in-memory network's address.
func (c *Conn) LocalAddr() net.Addr { return Addr{Name: "faultnet"} }

// RemoteAddr returns the in-memory network's address.
func (c *Conn) RemoteAddr() net.Addr { return Addr{Name: "faultnet"} }

// SetDeadline sets the read and the write deadline.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline bounds Reads, including one already blocked; the zero
// time removes the bound.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline bounds Writes, including one already blocked; the zero
// time removes the bound.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}
