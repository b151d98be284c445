package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"time"
)

// Sessions (DESIGN.md "Wire protocol"): the one implementation of dial, codec
// offer, tolerant read and redial. What a role does with its frames is its own.

// DialTCP is the sessions' default transport: a TCP dial that cancelling
// ctx interrupts, bounded so a black-holed peer costs a redial step rather
// than the kernel's minutes.
func DialTCP(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	return d.DialContext(ctx, "tcp", addr)
}

// Group is an HA group's addresses — its leader's and its warm standbys' —
// as every client holds them. As a flag.Value it reads "primary,standby".
type Group []string

// Set replaces g with the addresses in a comma list.
func (g *Group) Set(list string) error {
	*g = strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
	return nil
}

func (g Group) String() string { return strings.Join(g, ",") }

// Rotate is the one way a client reaches a leader that moves: each call
// dials the group's next address over TCP. A client redials only after a
// failed session, and only a leader listens (DESIGN.md "One dial rule").
func (g Group) Rotate() func(context.Context) (net.Conn, error) {
	var next atomic.Uint64
	return func(ctx context.Context) (net.Conn, error) {
		if len(g) == 0 {
			return nil, errors.New("wire: no address to dial")
		}
		return DialTCP(ctx, g[(next.Add(1)-1)%uint64(len(g))])
	}
}

// Open dials one session. Cancelling ctx closes the connection — the only
// lever that unblocks a parked read or a write into a dead peer — and
// Close releases that hook, so redial churn leaves nothing behind on ctx.
func Open(ctx context.Context, dial func(context.Context) (net.Conn, error)) (*Conn, error) {
	raw, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	c := NewConn(raw)
	c.unhook = context.AfterFunc(ctx, func() { raw.Close() })
	return c, nil
}

// Backoff is the capped exponential wait between attempts: Min, doubling
// up to Max, back to Min after Reset. Min == Max is a fixed period.
type Backoff struct {
	Min, Max time.Duration
	next     time.Duration
}

// Reset makes the next Wait start from Min again.
func (b *Backoff) Reset() { b.next = 0 }

// Wait sleeps the current step; false means ctx ended first.
func (b *Backoff) Wait(ctx context.Context) bool {
	d := max(b.next, b.Min)
	b.next = min(2*d, b.Max)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Link is the client end of a session that comes back by itself.
type Link struct {
	// Dial opens the transport: a role's test hook, or Group.Rotate.
	Dial func(context.Context) (net.Conn, error)
	// Backoff paces the redials, under one reset rule: a session that heard
	// from its peer at all resets it; a failed dial or a mute peer doubles it.
	Backoff
	// Redial, when non-nil, fires before every attempt after the first.
	Redial func()
}

// Run opens a session, hands it to serve, and when serve returns closes it,
// waits and redials, until ctx is cancelled. serve must have stopped
// reading by the time it returns.
func (l Link) Run(ctx context.Context, serve func(*Conn)) {
	for first := true; ctx.Err() == nil; first = false {
		if !first && l.Redial != nil {
			l.Redial()
		}
		if c, err := Open(ctx, l.Dial); err == nil {
			serve(c)
			c.Close()
			if c.heard {
				l.Reset()
			}
		}
		if !l.Wait(ctx) {
			return
		}
	}
}

// Offer is the client half of the handshake: it sends the session's first
// frame, advertising the binary codec. Writes stay JSON until a read sees
// the peer's hello name binary — a peer that predates the negotiation
// never confirms, and nothing changes.
func (c *Conn) Offer(first Envelope) error {
	first.Codecs = []string{CodecBinary}
	c.offered = true
	return c.Send(first)
}

// Choose is the server's decision: binary when the peer's first frame
// advertises it, JSON for a peer that does not.
func Choose(first *Envelope) string {
	if first.Advertises(CodecBinary) {
		return CodecBinary
	}
	return CodecJSON
}

// Confirm is the server half of the handshake: reply (when non-nil) goes
// out as JSON naming a binary choice, and only then do writes switch —
// so any peer can read the answer.
func (c *Conn) Confirm(codec string, reply *Envelope) error {
	if codec != CodecBinary {
		codec = ""
	}
	if reply != nil {
		reply.Codec = codec
		if err := c.Send(*reply); err != nil {
			return err
		}
	}
	if codec != "" {
		c.EnableBinary()
	}
	return nil
}

// Next is the tolerant receive: RecvInto, except that a corrupt frame the
// framing layer has already resynchronised past is reported to skipped
// (bound once per connection by the caller; nil to ignore) and skipped, so
// line noise costs freshness, not the session. I/O errors and fatal decode
// errors, RecvInto's escalation included, end it.
func (c *Conn) Next(e *Envelope, skipped func()) error {
	for {
		err := c.RecvInto(e)
		if err == nil {
			return nil
		}
		var de *DecodeError
		if errors.As(err, &de) && de.Recoverable() {
			if skipped != nil {
				skipped()
			}
			continue
		}
		return err
	}
}
