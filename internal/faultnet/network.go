package faultnet

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// Addr is the trivial address type of the in-memory network.
type Addr struct{ Name string }

// Network implements net.Addr.
func (a Addr) Network() string { return "faultnet" }

// String implements net.Addr.
func (a Addr) String() string { return a.Name }

// link is one live dialer↔listener connection pair.
type link struct {
	key     uint64
	attempt uint64
	client  *Conn // dialer side (agent): writes travel agent→manager
	server  *Conn // accepted side (manager): writes travel manager→agent
}

// partition records the desired blackhole state per connection key, so it
// survives reconnects: an agent that redials into a partition is still
// partitioned.
type partition struct {
	toServer   bool // client writes discarded (agent→manager down)
	fromServer bool // server writes discarded (manager→agent down)
}

// Network is an in-memory fault-injecting transport: Dial on one side,
// Accept on the other, no sockets involved. All connections derive their
// fault randomness from the network seed, so a chaos scenario replays
// deterministically.
type Network struct {
	seed int64

	mu         sync.Mutex
	clientProf map[uint64]Profile // per-key override for the dialer side
	defClient  Profile
	defServer  Profile
	links      map[uint64]*link // newest link per key
	attempts   map[uint64]uint64
	parts      map[uint64]partition
	accept     chan net.Conn
	done       chan struct{}
	retired    Stats // folded-in counters of links replaced by redials
	closed     bool
}

// New creates a network whose every fault decision derives from seed.
func New(seed int64) *Network {
	return &Network{
		seed:       seed,
		clientProf: make(map[uint64]Profile),
		links:      make(map[uint64]*link),
		attempts:   make(map[uint64]uint64),
		parts:      make(map[uint64]partition),
		// Accept queue sized for the scale harness: a full 1024-agent herd
		// may dial before the accept loop drains anyone.
		accept: make(chan net.Conn, 1024),
		done:   make(chan struct{}),
	}
}

// SetDefaultProfiles sets the fault profiles applied to the dialer side
// (client: e.g. agent→manager sample stream) and the accepted side
// (server: e.g. manager→agent command stream) of future connections.
func (n *Network) SetDefaultProfiles(client, server Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defClient, n.defServer = client, server
}

// SetClientProfile overrides the dialer-side profile for one key, applying
// to the current link (if any) and all future redials.
func (n *Network) SetClientProfile(key uint64, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clientProf[key] = p
	if l, ok := n.links[key]; ok {
		l.client.SetProfile(p)
	}
}

// splitmix64 scrambles the (seed, key, attempt) triple into an independent
// per-link RNG seed (same finaliser as sim's RNG streams).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Dial opens a connection identified by key (the caller's stable identity,
// e.g. the node ID). The returned conn injects the client profile; the
// matching server-side conn is delivered to the Listener. Fault randomness
// is seeded from (network seed, key, per-key attempt counter), so each
// (agent, reconnect) pair replays the same fault sequence on every run.
func (n *Network) Dial(ctx context.Context, key uint64) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("faultnet: network closed")
	}
	attempt := n.attempts[key]
	n.attempts[key] = attempt + 1
	cprof, ok := n.clientProf[key]
	if !ok {
		cprof = n.defClient
	}
	sprof := n.defServer
	part := n.parts[key]
	n.mu.Unlock()

	client, server := newLink(cprof, sprof,
		splitmix64(uint64(n.seed)^splitmix64(key)^splitmix64(attempt<<32)))
	client.SetBlackhole(part.toServer)
	server.SetBlackhole(part.fromServer)
	l := &link{key: key, attempt: attempt, client: client, server: server}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("faultnet: network closed")
	}
	if old, ok := n.links[key]; ok {
		n.retired.add(old.client.Stats())
		n.retired.add(old.server.Stats())
	}
	n.links[key] = l
	n.mu.Unlock()

	select {
	case n.accept <- server:
		return client, nil
	case <-n.done:
		client.Close()
		return nil, fmt.Errorf("faultnet: network closed")
	case <-ctx.Done():
		client.Close()
		return nil, ctx.Err()
	}
}

// Link returns the current client/server conn pair for key (nil, nil if
// the key has no live link), for per-connection fault steering and stats.
func (n *Network) Link(key uint64) (client, server *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[key]; ok {
		return l.client, l.server
	}
	return nil, nil
}

// Kill force-closes the current connection of key (both directions),
// driving the dialer through its reconnect path. It is a reset, not a
// shutdown: bytes written but not yet read are discarded, as a TCP RST
// discards what sits in the socket buffers. It reports whether a live link
// existed.
func (n *Network) Kill(key uint64) bool {
	n.mu.Lock()
	l, ok := n.links[key]
	n.mu.Unlock()
	if !ok {
		return false
	}
	l.client.Close()
	l.server.Close()
	return true
}

// Partition installs an asymmetric partition for key: toServer silences
// the dialer's writes, fromServer silences the accepted side's writes.
// The state persists across reconnects until healed.
func (n *Network) Partition(key uint64, toServer, fromServer bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[key] = partition{toServer: toServer, fromServer: fromServer}
	if l, ok := n.links[key]; ok {
		l.client.SetBlackhole(toServer)
		l.server.SetBlackhole(fromServer)
	}
}

// Heal removes key's partition in both directions.
func (n *Network) Heal(key uint64) { n.Partition(key, false, false) }

// Stats sums injected-fault counters across every connection the network
// has carried: live links plus links retired by redials.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	sum := n.retired
	for _, l := range n.links {
		sum.add(l.client.Stats())
		sum.add(l.server.Stats())
	}
	return sum
}

// Listener exposes the accepted side of the network as a net.Listener.
// Each call returns an independent listener: closing one stops its Accept
// without tearing the network down, so a crashed-and-restarted manager can
// open a fresh listener over the same network while agents keep redialling.
func (n *Network) Listener() net.Listener {
	return &listener{n: n, done: make(chan struct{})}
}

// Close shuts the network down: pending and future Dials fail and the
// listener's Accept returns an error.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.done)
	links := n.links
	n.mu.Unlock()
	for _, l := range links {
		l.client.Close()
		l.server.Close()
	}
}

type listener struct {
	n    *Network
	done chan struct{}
	once sync.Once
}

// Accept returns the server side of the next dialled connection. It
// returns net.ErrClosed once the listener or the network is closed, so
// accept loops can distinguish shutdown from transient faults.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.n.accept:
		return c, nil
	case <-l.n.done:
		return nil, net.ErrClosed
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close closes this listener only; the network, its live links and any
// other listeners stay up. Dials made while no listener is accepting park
// in the accept queue until a new listener drains them.
func (l *listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return Addr{Name: "faultnet"} }
