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

// healthRec is one node's health record. It outlives the node's
// connection: a disconnected node stays in the table as lost, and its
// reconnect history survives redials — that is what makes flap detection
// possible. All access is under the owning shard's mutex; a node's health
// record lives in the same shard as its connection and command state, so
// one lock covers all three.
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

// noteConnect records a (re)connect for id and quarantines the node when
// the connect rate crosses the flap limit. Caller holds sh.mu; id must
// belong to sh. quarantines is the server-wide entry counter.
func noteConnect(sh *shard, id node.ID, now time.Time, cfg *Config, quarantines *obs.Counter) {
	rec := sh.health[id]
	if rec == nil {
		rec = &healthRec{state: healthHealthy}
		sh.health[id] = rec
		sh.nHealthy++
	}
	rec.connects = append(rec.connects, now)
	rec.pruneConnects(now, cfg.FlapWindow)
	if cfg.FlapLimit > 0 && len(rec.connects) >= cfg.FlapLimit && rec.state != healthQuarantined {
		// Keep the cached shard tallies exact across the transition: the
		// next updateHealth sweep would fix them anyway, but Status may
		// read them first.
		switch rec.state {
		case healthHealthy:
			sh.nHealthy--
		case healthStale:
			sh.nStale--
		case healthLost:
			sh.nLost--
		}
		sh.nQuar++
		rec.state = healthQuarantined
		rec.quarantinedAt = now
		quarantines.Inc()
	}
}

// updateHealth re-evaluates the state of every node in sh. Caller holds
// sh.mu; the per-shard sweeps run concurrently on the cycle's worker
// pool, which is safe because a node's whole record lives in one shard.
// The sweep doubles as the tally refresh: it already visits every
// record, so recomputing the shard's cached health counts here is free
// and keeps refreshGauges O(shards).
func updateHealth(sh *shard, now time.Time, cfg *Config) {
	var healthy, stale, lost, quar int
	for id, rec := range sh.health {
		if rec.state == healthQuarantined {
			if now.Sub(rec.quarantinedAt) < cfg.Quarantine {
				quar++
				continue
			}
			rec.pruneConnects(now, cfg.FlapWindow)
			if cfg.FlapLimit > 0 && len(rec.connects) >= cfg.FlapLimit {
				// Still flapping: extend the quarantine (hysteresis).
				rec.quarantinedAt = now
				quar++
				continue
			}
			// Quarantine served and the link has settled; fall through to
			// the freshness-based classification.
		}
		ac, connected := sh.agents[id]
		switch {
		case !connected:
			rec.state = healthLost
			lost++
		case now.Sub(ac.lastAt) > cfg.LostAfter:
			rec.state = healthLost
			lost++
		case now.Sub(ac.lastAt) > cfg.StaleAfter:
			rec.state = healthStale
			stale++
		default:
			rec.state = healthHealthy
			healthy++
		}
	}
	sh.nHealthy, sh.nStale, sh.nLost, sh.nQuar = healthy, stale, lost, quar
}

// quarantinedIn reports whether id (a node of sh) is currently
// quarantined. Caller holds sh.mu.
func quarantinedIn(sh *shard, id node.ID) bool {
	rec, ok := sh.health[id]
	return ok && rec.state == healthQuarantined
}
