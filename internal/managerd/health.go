package managerd

import (
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

// Node health state machine. The manager classifies every node it has
// ever seen (or recovered from the journal) into one of four states each
// control cycle:
//
//	healthy     fresh sample within StaleAfter
//	stale       connected, but the newest sample is older than StaleAfter
//	lost        disconnected, or silent beyond LostAfter
//	quarantined reconnect-flapping: ≥ FlapLimit connects within FlapWindow
//
// Quarantined nodes are excluded from the candidate set — the §II.A
// controllability assumption treats them as A_uncontrollable: their power
// still counts toward the system estimate, but the manager stops sending
// them commands a flapping link would lose anyway. Quarantine carries
// hysteresis: it lasts at least Quarantine, and is extended while the
// connect rate stays above the flap limit, so a link that keeps bouncing
// cannot oscillate in and out of the candidate set.
type healthState int

const (
	healthHealthy healthState = iota
	healthStale
	healthLost
	healthQuarantined
)

func (s healthState) String() string {
	switch s {
	case healthHealthy:
		return "healthy"
	case healthStale:
		return "stale"
	case healthLost:
		return "lost"
	case healthQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// healthRec is one node's health: the part of its nodeRec (store.go) that
// the classification below owns.
type healthRec struct {
	state         healthState
	connects      []time.Time // connect times within the flap window
	quarantinedAt time.Time
	sendErrs      int // failed writes charged to this node (current conn only)
}

// pruneConnects drops connect records older than the flap window.
func (h *healthRec) pruneConnects(now time.Time, window time.Duration) {
	cut := now.Add(-window)
	i := 0
	for i < len(h.connects) && h.connects[i].Before(cut) {
		i++
	}
	h.connects = h.connects[i:]
}

// noteConnect records a (re)connect for id, making the node's record on
// its first, and quarantines the node when the connect rate crosses the
// flap limit. Caller holds sh.mu; id must belong to sh. quarantines is the
// server-wide entry counter.
func noteConnect(sh *shard, id node.ID, now time.Time, cfg *Config, quarantines *obs.Counter) *nodeRec {
	rec := sh.nodes[id]
	if rec == nil {
		rec = sh.add(id)
		sh.nHealthy++
	}
	h := &rec.health
	h.connects = append(h.connects, now)
	h.pruneConnects(now, cfg.FlapWindow)
	if cfg.FlapLimit > 0 && len(h.connects) >= cfg.FlapLimit && h.state != healthQuarantined {
		// Keep the cached shard tallies exact across the transition: the
		// next sweep would fix them anyway, but Status may read them
		// first.
		switch h.state {
		case healthHealthy:
			sh.nHealthy--
		case healthStale:
			sh.nStale--
		case healthLost:
			sh.nLost--
		}
		sh.nQuar++
		h.state = healthQuarantined
		h.quarantinedAt = now
		quarantines.Inc()
	}
	return rec
}

// classify re-evaluates the node's state at now, given whether it is away
// (no connection) and when it last reported, and returns it. Caller holds
// the owning shard's mutex.
func (h *healthRec) classify(away bool, lastAt, now time.Time, cfg *Config) healthState {
	if h.state == healthQuarantined {
		if now.Sub(h.quarantinedAt) < cfg.Quarantine {
			return healthQuarantined
		}
		h.pruneConnects(now, cfg.FlapWindow)
		if cfg.FlapLimit > 0 && len(h.connects) >= cfg.FlapLimit {
			// Still flapping: extend the quarantine (hysteresis).
			h.quarantinedAt = now
			return healthQuarantined
		}
		// Quarantine served and the link has settled; fall through to
		// the freshness-based classification.
	}
	switch age := now.Sub(lastAt); {
	case away || age > cfg.LostAfter:
		h.state = healthLost
	case age > cfg.StaleAfter:
		h.state = healthStale
	default:
		h.state = healthHealthy
	}
	return h.state
}
