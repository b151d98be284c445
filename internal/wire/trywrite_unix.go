//go:build unix

package wire

import (
	"io"
	"syscall"
)

// socketWriter writes to a connection's socket without blocking: one
// write(2) on its non-blocking descriptor through syscall.RawConn,
// never waiting for the socket to drain. Its scratch fields carry one
// call's arguments and results into and out of the callback, which is
// built once, so a write allocates nothing.
type socketWriter struct {
	rc    syscall.RawConn
	write func(fd uintptr) bool

	p   []byte
	n   int
	err error
	ran bool
}

// tryWriterOfSocket returns the non-blocking write of a stream backed by
// a socket (a *net.TCPConn, say), or nil.
func tryWriterOfSocket(rw io.ReadWriteCloser) tryWriter {
	sc, ok := rw.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &socketWriter{rc: rc}
	w.write = w.once
	return w
}

// once is the RawConn callback: one write(2), done whatever it returned.
func (w *socketWriter) once(fd uintptr) bool {
	w.ran = true
	n, err := syscall.Write(int(fd), w.p)
	if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR {
		n, err = 0, nil // no room now: a decline
	}
	w.n, w.err = max(n, 0), err
	return true
}

// TryWrite writes what of p the socket buffer takes now. A descriptor that
// is closed or past its write deadline never reaches the callback; that is
// a decline too, and the next blocking write reports the error.
func (w *socketWriter) TryWrite(p []byte) (int, error) {
	w.p, w.n, w.err, w.ran = p, 0, nil, false
	err := w.rc.Write(w.write)
	w.p = nil
	if !w.ran {
		return 0, nil
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	return w.n, w.err
}
