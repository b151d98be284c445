package replica

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Publisher is the leader side of journal streaming, extracted so every
// journalled daemon — managerd and the federation coordinator alike —
// replicates to its standbys through one implementation.
//
// A standby's follower connects like any client and subscribes with a
// KindJournalAck carrying the sequence number its copy has reached; the
// embedding server routes the connection here. The subscriber is caught
// up synchronously under the publisher mutex (ring entries when the
// store's history still covers it, a full-snapshot reset entry
// otherwise) and then receives every entry the leader publishes, each
// acked back so Stats can report replication lag. A follower that
// stalls past its buffer is dropped rather than waited on — it redials
// and resumes from its own sequence number.

// pubSubBuf sizes each subscriber's outbound buffer. Serve enqueues the
// whole catch-up — at most ringMax ring entries, or one Reset — before the
// writer starts, so the buffer must hold it without blocking; the second
// ringMax is headroom for live entries committed while the writer drains.
const pubSubBuf = 2 * ringMax

type pubSub struct {
	conn   *wire.Conn
	ch     chan wire.Envelope
	closed chan struct{}
	acked  atomic.Uint64
}

// Publisher fans committed journal entries out to subscribed followers.
type Publisher struct {
	store        *Store
	writeTimeout time.Duration

	mu     sync.Mutex
	subs   map[*pubSub]struct{}
	closed bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewPublisher builds a publisher over the leader's journal store.
// writeTimeout arms each frame write so a wedged follower cannot hold
// its buffer forever.
func NewPublisher(store *Store, writeTimeout time.Duration) *Publisher {
	return &Publisher{
		store:        store,
		writeTimeout: writeTimeout,
		subs:         make(map[*pubSub]struct{}),
		stopCh:       make(chan struct{}),
	}
}

// Serve owns one follower connection: catch it up from fromSeq,
// register it, and read acks until the connection dies. Epoch fencing
// and codec negotiation are the embedding server's concern — it has
// already inspected the subscribe frame by the time it calls Serve.
// Blocks until the follower disconnects or the publisher closes.
func (p *Publisher) Serve(conn *wire.Conn, fromSeq uint64) {
	sub := &pubSub{conn: conn, ch: make(chan wire.Envelope, pubSubBuf), closed: make(chan struct{})}
	sub.acked.Store(fromSeq)

	// Catch-up and registration are one critical section: entries
	// committed while we enqueue the backlog are published to sub's
	// channel behind it, so the follower sees a gap-free stream.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	entries, ok := p.store.EntriesSince(fromSeq)
	if !ok {
		entries = []Entry{p.store.ResetEntry()}
	}
	for _, e := range entries {
		env, err := appendEnvelope(e)
		if err != nil {
			p.mu.Unlock()
			conn.Close()
			return
		}
		sub.ch <- env
	}
	p.subs[sub] = struct{}{}
	p.mu.Unlock()

	p.wg.Add(1)
	go p.runWriter(sub)

	for {
		env, err := conn.Recv()
		if err != nil {
			break
		}
		if env.Type == wire.KindJournalAck {
			sub.acked.Store(env.Seq)
		}
	}
	p.drop(sub)
}

// runWriter drains one subscriber's channel onto its connection under
// the write deadline.
func (p *Publisher) runWriter(sub *pubSub) {
	defer p.wg.Done()
	for {
		select {
		case <-sub.closed:
			return
		case <-p.stopCh:
			return
		case env := <-sub.ch:
			_ = sub.conn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
			if err := sub.conn.Send(env); err != nil {
				p.drop(sub)
				return
			}
		}
	}
}

// Publish fans one committed journal entry out to every subscriber. A
// subscriber whose buffer is full is dropped rather than waited on — it
// will redial and resume. With no subscriber nothing is encoded: one that
// arrives later catches up from the store, which already holds e.
func (p *Publisher) Publish(e Entry) {
	p.mu.Lock()
	idle := len(p.subs) == 0
	p.mu.Unlock()
	if idle {
		return
	}
	env, err := appendEnvelope(e)
	if err != nil {
		return
	}
	p.mu.Lock()
	var full []*pubSub
	for sub := range p.subs {
		select {
		case sub.ch <- env:
		default:
			full = append(full, sub)
		}
	}
	p.mu.Unlock()
	for _, sub := range full {
		p.drop(sub)
	}
}

// drop unregisters a subscriber and closes its connection; idempotent
// across the reader, writer and publisher paths.
func (p *Publisher) drop(sub *pubSub) {
	p.mu.Lock()
	_, present := p.subs[sub]
	delete(p.subs, sub)
	p.mu.Unlock()
	if present {
		close(sub.closed)
	}
	sub.conn.Close()
}

// Stats reports the connected-follower count and the worst replication
// lag in journal entries.
func (p *Publisher) Stats() (conns int, lag uint64) {
	head := p.store.Seq()
	p.mu.Lock()
	conns = len(p.subs)
	for sub := range p.subs {
		if a := sub.acked.Load(); head > a && head-a > lag {
			lag = head - a
		}
	}
	p.mu.Unlock()
	return conns, lag
}

// CloseSubs drops every subscriber but leaves the publisher usable —
// the depose path, where the fenced leader sheds its followers so they
// redial the new one.
func (p *Publisher) CloseSubs() {
	p.mu.Lock()
	subs := make([]*pubSub, 0, len(p.subs))
	for sub := range p.subs {
		subs = append(subs, sub)
	}
	p.mu.Unlock()
	for _, sub := range subs {
		p.drop(sub)
	}
}

// Close drops every subscriber, refuses new ones, and waits for the
// writer goroutines (the Stop path). Idempotent.
func (p *Publisher) Close() {
	p.mu.Lock()
	wasClosed := p.closed
	p.closed = true
	p.mu.Unlock()
	if !wasClosed {
		close(p.stopCh)
	}
	p.CloseSubs()
	p.wg.Wait()
}

// appendEnvelope frames one journal entry for the wire.
func appendEnvelope(e Entry) (wire.Envelope, error) {
	raw, err := e.encode()
	if err != nil {
		return wire.Envelope{}, err
	}
	return wire.Envelope{Type: wire.KindJournalAppend, Seq: e.Seq, Epoch: e.Epoch, Entry: raw}, nil
}
