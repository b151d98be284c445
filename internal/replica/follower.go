package replica

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// FollowerConfig configures a journal follower.
type FollowerConfig struct {
	// Addrs is the leader's HA group, dialled in rotation when Dial is nil.
	Addrs wire.Group
	// Dial overrides the transport (tests use faultnet pipes).
	Dial func(ctx context.Context) (net.Conn, error)
	// Store receives the replicated entries. Required.
	Store *Store
	// Backoff between redials; default 50ms.
	Backoff time.Duration
}

// Follower mirrors a leader's journal into a local Store. It subscribes
// by sending a KindJournalAck carrying its current sequence number; the
// leader replays everything after it (or a full-snapshot Reset entry if
// the follower is too far behind) and then streams live appends, each
// acknowledged back so the leader can track replication lag. The stream
// is resumable: after any disconnect the follower redials and
// resubscribes from wherever its store got to.
type Follower struct {
	cfg        FollowerConfig
	reg        *obs.Registry
	applied    *obs.Counter
	resets     *obs.Counter
	redials    *obs.Counter
	connectedG *obs.Gauge
}

// NewFollower validates cfg and builds a follower.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Store == nil {
		return nil, errors.New("replica: follower needs a store")
	}
	if len(cfg.Addrs) == 0 && cfg.Dial == nil {
		return nil, errors.New("replica: follower needs an address or dialer")
	}
	if cfg.Dial == nil {
		cfg.Dial = cfg.Addrs.Rotate()
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	reg := obs.NewRegistry()
	return &Follower{
		cfg:        cfg,
		reg:        reg,
		applied:    reg.Counter("replica_entries_applied"),
		resets:     reg.Counter("replica_resets"),
		redials:    reg.Counter("replica_redials"),
		connectedG: reg.Gauge("replica_connected"),
	}, nil
}

// Obs returns the follower's instrument registry.
func (f *Follower) Obs() *obs.Registry { return f.reg }

// Run replicates until ctx is cancelled, redialling at the fixed Backoff
// period after every disconnect, gap or protocol error.
func (f *Follower) Run(ctx context.Context) error {
	wire.Link{
		Dial:    f.cfg.Dial,
		Backoff: wire.Backoff{Min: f.cfg.Backoff, Max: f.cfg.Backoff},
		Redial:  f.redials.Inc,
	}.Run(ctx, f.session)
	return ctx.Err()
}

// session is one subscription: resubscribe from the store's head, apply
// and acknowledge entries until anything at all goes wrong.
func (f *Follower) session(conn *wire.Conn) {
	// The subscribe frame carries the codec offer. The leader's hello reply
	// confirms it as it is read, switching our acks onto binary, and is then
	// skipped like any frame that is not an append.
	sub := wire.Envelope{Type: wire.KindJournalAck, Seq: f.cfg.Store.Seq(), Epoch: f.cfg.Store.Epoch()}
	if conn.Offer(sub) != nil {
		return
	}
	f.connectedG.Set(1)
	defer f.connectedG.Set(0)
	for {
		env, err := conn.Recv()
		if err != nil {
			// Recv, not the tolerant Next, on purpose: entries are
			// sequenced, so a skipped journal_append is a gap, and
			// resubscribing from our head is the right answer to a gap.
			return
		}
		if env.Type != wire.KindJournalAppend || len(env.Entry) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(env.Entry, &e) != nil {
			return
		}
		e.raw = env.Entry // a log line writes the leader's bytes, not a re-encoding
		if err := f.cfg.Store.ApplyRemote(e); err != nil {
			// Gap or invalid entry: resubscribe from our current head.
			return
		}
		if e.Reset != nil {
			f.resets.Inc()
		} else {
			f.applied.Inc()
		}
		if conn.Send(wire.Envelope{Type: wire.KindJournalAck, Seq: f.cfg.Store.Seq()}) != nil {
			return
		}
	}
}
