package faultnet

import (
	"io"
	"os"
	"sync"
	"time"
)

// pipeCap is the capacity of one direction of a link: wire's read-buffer
// size, so a reader that was scheduled late still takes a full buffer in
// one Read. A constant, not an option — the daemons' frames are 50–150
// bytes, so a link holds a handful of them, as a small socket buffer
// would.
const pipeCap = 512

// half is one direction of an in-memory link: a bounded byte ring written
// by one Conn and read by its peer. Where a synchronous pipe hands every
// Write to a parked Read (two context switches per frame), a Write here
// copies in and returns, as a send into a kernel socket buffer does, and
// blocks only while the ring is full.
//
// Close is TCP-shaped. The writing end closing lets the reader drain what
// is buffered and then see io.EOF; the reading end closing discards the
// buffer and fails the peer's writes. Either wakes every blocked call, and
// a call on an end that was closed locally returns io.ErrClosedPipe.
type half struct {
	wmu sync.Mutex // held across a whole Write: concurrent writes never interleave

	mu      sync.Mutex
	canRead sync.Cond // bytes arrived, an end closed, or the read deadline moved
	canSend sync.Cond // bytes drained, an end closed, or the write deadline moved
	buf     []byte    // ring of pipeCap bytes, allocated on first write
	r, n    int       // read index and bytes buffered
	rdl     time.Time // read deadline (zero: none)
	wdl     time.Time // write deadline (zero: none)
	rclosed bool      // reading end closed
	wclosed bool      // writing end closed

	// rate is the reading end's Profile.ReadBytesPerSec. A throttled
	// reader makes the direction a rendezvous: a write returns only once
	// the reader has drained it — a wedged host whose socket buffer is
	// already full, which is what the slow-reader proofs model.
	rate int
}

func newHalf() *half {
	h := &half{}
	h.canRead.L = &h.mu
	h.canSend.L = &h.mu
	return h
}

// wait blocks on c until it is signalled or deadline passes. h.mu is held
// on entry and on return. The timer takes h.mu before it broadcasts, so it
// cannot fire between the caller's check and its c.Wait.
func (h *half) wait(c *sync.Cond, deadline time.Time) error {
	if deadline.IsZero() {
		c.Wait()
		return nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		return os.ErrDeadlineExceeded
	}
	t := time.AfterFunc(d, func() {
		h.mu.Lock()
		c.Broadcast()
		h.mu.Unlock()
	})
	c.Wait()
	t.Stop()
	return nil
}

// read drains up to len(p) buffered bytes, blocking while there are none;
// a throttled reader gets a tenth of a second's worth at most. It reports
// the throttle alongside, for the caller to sleep off what it took.
func (h *half) read(p []byte) (n, rate int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.rclosed:
			return 0, h.rate, io.ErrClosedPipe
		case len(p) == 0:
			return 0, h.rate, nil
		case h.n > 0:
			if h.rate > 0 {
				p = p[:min(len(p), max(h.rate/10, 1))]
			}
			n = copy(p, h.buf[h.r:min(h.r+h.n, pipeCap)])
			if n < len(p) && n < h.n { // wrapped: the rest sits at the front
				n += copy(p[n:], h.buf[:h.n-n])
			}
			h.n -= n
			h.r = (h.r + n) % pipeCap
			if h.n == 0 {
				h.r = 0
			}
			h.canSend.Broadcast()
			return n, h.rate, nil
		case h.wclosed:
			return 0, h.rate, io.EOF
		}
		if err := h.wait(&h.canRead, h.rdl); err != nil {
			return 0, h.rate, err
		}
	}
}

// copyIn copies as much of p as the ring has room for and returns how
// much that was. h.mu is held.
func (h *half) copyIn(p []byte) int {
	if len(p) == 0 || h.n == pipeCap {
		return 0
	}
	if h.buf == nil {
		h.buf = make([]byte, pipeCap)
	}
	w := (h.r + h.n) % pipeCap
	k := copy(h.buf[w:min(w+pipeCap-h.n, pipeCap)], p)
	if k < len(p) && h.n+k < pipeCap { // wrap to the front
		k += copy(h.buf[:h.r], p[k:])
	}
	h.n += k
	h.canRead.Broadcast()
	return k
}

// write copies p into the ring, blocking while it is full, and returns
// how many bytes it buffered. Toward a throttled reader it also waits for
// the ring to drain.
func (h *half) write(p []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	put := 0
	for {
		if h.wclosed || h.rclosed {
			return put, io.ErrClosedPipe
		}
		put += h.copyIn(p[put:])
		if put == len(p) && (h.rate <= 0 || h.n == 0) {
			return put, nil
		}
		if err := h.wait(&h.canSend, h.wdl); err != nil {
			return put, err
		}
	}
}

// reserve claims the write side for n bytes that put will then write
// without blocking: it takes wmu, which the caller releases after put,
// and reports false (holding nothing) when wmu is taken, an end is
// closed, the reader is throttled or the ring has less than n bytes free.
// Holding wmu, the reservation stays good: only the reader touches the
// ring meanwhile, and it only frees room.
func (h *half) reserve(n int) bool {
	if !h.wmu.TryLock() {
		return false
	}
	h.mu.Lock()
	ok := !h.wclosed && !h.rclosed && h.rate <= 0 && pipeCap-h.n >= n
	h.mu.Unlock()
	if !ok {
		h.wmu.Unlock()
	}
	return ok
}

// put writes p into room reserve set aside.
func (h *half) put(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wclosed || h.rclosed {
		return 0, io.ErrClosedPipe
	}
	return h.copyIn(p), nil
}

// closeRead closes the reading end: buffered bytes are discarded, blocked
// calls on both ends return.
func (h *half) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.buf, h.r, h.n = nil, 0, 0
	h.canRead.Broadcast()
	h.canSend.Broadcast()
	h.mu.Unlock()
}

// closeWrite closes the writing end: the reader drains, then sees io.EOF.
func (h *half) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.canRead.Broadcast()
	h.canSend.Broadcast()
	h.mu.Unlock()
}

// setReadDeadline and setWriteDeadline also wake a call that is already
// blocked, which re-arms against the new deadline.
func (h *half) setReadDeadline(t time.Time) {
	h.mu.Lock()
	h.rdl = t
	h.canRead.Broadcast()
	h.mu.Unlock()
}

func (h *half) setWriteDeadline(t time.Time) {
	h.mu.Lock()
	h.wdl = t
	h.canSend.Broadcast()
	h.mu.Unlock()
}

// setRate records the reading end's throttle and wakes a blocked writer,
// whose wait condition depends on it.
func (h *half) setRate(bytesPerSec int) {
	h.mu.Lock()
	h.rate = bytesPerSec
	h.canSend.Broadcast()
	h.mu.Unlock()
}
