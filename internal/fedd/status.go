package fedd

import (
	"time"

	"repro/internal/wire"
)

// Status serving. A powctl (or any probe) sends KindStatus and gets one
// reply, exactly as against a managerd — but a coordinator marks its
// reply with Node == CoordinatorNode and attaches one Batch row per
// known child, so the same CLI can render either daemon without knowing
// in advance which it dialled.

// CoordinatorNode is the Node value stamped on a coordinator's status
// reply, distinguishing it from a manager's (whose Node is never
// negative). Child subscriptions reject negative indices, so the marker
// can never collide with a real child.
const CoordinatorNode = -1

// StatusEnvelope assembles the coordinator's status reply: the
// aggregate StatusReply plus one cab_report-shaped Batch row per child
// (its Level field carries 0/1 liveness, its Codec the session's
// negotiated codec).
func (s *Server) StatusEnvelope() wire.Envelope {
	children := s.grantor.States()
	band := s.band(time.Now())

	s.Refresh()
	val := func(name string) float64 {
		v, _ := s.Obs().Value(name)
		return v
	}
	st := wire.StatusReply{
		ThresholdPLW: float64(band.PL),
		ThresholdPHW: float64(band.PH),

		Epoch:              int(s.Epoch()),
		Leader:             !s.Deposed(),
		Cabinet:            s.cfg.Row,
		Governed:           s.Governed(),
		LastTakeoverMicros: int64(val("last_takeover_micros")),
		ReplicaConns:       int(val("replica_conns")),
		ReplicaLagEntries:  int(val("replica_lag_entries")),
		JournalAppends:     int(val("journal_appends")),
		JournalWrites:      int(val("journal_writes")),
		FencedHellos:       int(val("fenced_hellos")),
		BudgetGrants:       int(val("budget_grants")),
		BudgetFloors:       int(val("budget_floors")),
		DecodeErrors:       int(val("decode_errors")),

		// The grantor's instruments; absent (zero) before its first cycle.
		Cycles:          int(val("cycles")),
		LastPowerW:      val("fleet_power_w"),
		DemandW:         val("fleet_demand_w"),
		LastCycleMicros: int64(val("last_cycle_micros")),
	}

	env := wire.Envelope{Type: wire.KindStatus, Node: CoordinatorNode, Stats: &st}
	env.Batch = make([]wire.Envelope, 0, len(children))
	for _, c := range children {
		st.Agents += c.Agents
		st.HealthyNodes += c.Healthy
		if !c.Live {
			st.LostNodes++
		}
		live := 0
		if c.Live {
			live = 1
		}
		env.Batch = append(env.Batch, wire.Envelope{
			Type: wire.KindCabReport, Node: c.Cabinet,
			Level:   live,
			Codec:   c.Codec,
			PowerW:  c.PowerW,
			DemandW: c.DemandW,
			BudgetW: c.GrantW,
			PHW:     c.GrantPHW,
			Seq:     c.GrantSeq,
			Epoch:   c.Epoch,
			Agents:  c.Agents,
			Healthy: c.Healthy,
		})
	}
	return env
}
