package managerd

import (
	"time"

	"repro/internal/tier"
)

// governorConfig binds the cabinet side of the capping federation onto
// this server: a governed managerd dials the coordinator, subscribes with
// a cab_report frame, streams one report per ReportEvery and applies the
// power band from each cab_budget grant to its own Algorithm 1 loop.
//
// The session machinery — subscribe, grant adoption, dead-man floor
// after BudgetGrace control periods of silence, capped redial backoff —
// lives in tier.Governor, the reusable child half of the federation
// seam (the same code governs a row coordinator under a facility), and
// the chassis runs it while this server leads. This is only the server's
// config and its per-cycle aggregate snapshot.
func (s *Server) governorConfig() tier.GovernorConfig {
	return tier.GovernorConfig{
		Parent:      s.cfg.CoordinatorAddr,
		Dial:        s.cfg.CoordinatorDial,
		Child:       s.cfg.Cabinet,
		ReportEvery: s.cfg.ReportEvery,
		Grace:       time.Duration(s.cfg.BudgetGrace) * s.cfg.ControlEvery,
		Failsafe:    s.cfg.FailsafeBudget,
		Initial:     s.cfg.Thresholds,
		Snapshot: func() tier.Snapshot {
			s.refreshGauges()
			s.stateMu.Lock()
			thr := s.thr
			s.stateMu.Unlock()
			return tier.Snapshot{
				AppliedPLW: float64(thr.PL),
				AppliedPHW: float64(thr.PH),
				Agents:     int(s.agentsG.Value()),
				Healthy:    int(s.healthyG.Value()),
				Epoch:      s.Epoch(),
			}
		},
	}
}
