package fedd

import "repro/internal/wire"

// Status serving. A powctl (or any probe) sends KindStatus and gets one
// reply, exactly as against a managerd: the chassis fills its Stats from
// the registry, where the grantor publishes the fleet roll-up under the
// reply's instrument names. A coordinator adds only what a manager has
// not — the CoordinatorNode marker and one Batch row per known child — so
// the same CLI can render either daemon without knowing in advance which
// it dialled.

// CoordinatorNode is the Node value stamped on a coordinator's status
// reply, distinguishing it from a manager's (whose Node is never
// negative). Child subscriptions reject negative indices, so the marker
// can never collide with a real child.
const CoordinatorNode = -1

// decorateStatus marks the chassis's status reply as a coordinator's and
// attaches one cab_report-shaped Batch row per child (its Level field
// carries 0/1 liveness, its Codec the session's negotiated codec).
func (s *Server) decorateStatus(env *wire.Envelope) {
	children := s.grantor.States()
	env.Node = CoordinatorNode
	env.Batch = make([]wire.Envelope, 0, len(children))
	for _, c := range children {
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
}
