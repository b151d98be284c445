package harness

import (
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/power"
)

// TestFleetUnderCorruption is the corruption soak: every agent negotiates
// the binary codec, and every agent's sample stream runs under 20% byte
// corruption. The capping invariant must hold, the fleet must stay (or
// come back) connected, and the corruption must surface as decode_errors
// — detected and skipped frames — never as a silent misparse feeding the
// control loop garbage. Runs under -race in CI.
func TestFleetUnderCorruption(t *testing.T) {
	const agents = 32
	// Scaled from chaosThresholds: a 32-agent fleet draws ~8.4 kW
	// uncapped and ~5 kW floored, so this band forces real throttling.
	thr := power.Thresholds{PL: 6000, PH: 7500}
	c := Start(t, Options{
		Agents:         agents,
		Seed:           11,
		Thresholds:     thr,
		CommandTimeout: 100 * time.Millisecond,
		AgentProfile:   faultnet.Profile{CorruptProb: 0.2, FirstWriteClean: true},
	})
	c.AwaitAgents(agents, 20*time.Second)

	// Safety invariant: estimated fleet power settles at/below P_H and
	// holds for five consecutive control periods, despite a fifth of all
	// sample writes arriving damaged.
	c.AwaitSettledBelow(float64(thr.PH), 5, 30*time.Second)
	if c.MinLevel() == 9 {
		t.Error("power settled but no node was ever degraded")
	}

	// Liveness: corruption costs retransmits and the odd redial (header
	// damage is fatal by design), never the fleet.
	WaitUntil(t, 20*time.Second, func() bool { return c.Status().Agents == agents },
		"fleet never healed to %d agents (have %d)", agents, c.Status().Agents)

	// Detection: the injected corruption must be visible — flipped bytes
	// on the network side, and tolerated decode errors on the manager
	// side. A corrupt frame that neither errored nor dropped the
	// connection would mean the codec misparsed it silently; the wire
	// package's checksum and differential-fuzz tests exist to make that
	// impossible, and this asserts the accounting end to end.
	ns := c.Net.Stats()
	if ns.Corrupted == 0 {
		t.Fatalf("20%% corruption profile injected nothing: %+v", ns)
	}
	WaitUntil(t, 10*time.Second, func() bool { return c.Status().DecodeErrors > 0 },
		"corrupted %d writes but manager counted no decode_errors", ns.Corrupted)

	st := c.Status()
	if st.SamplesReceived == 0 {
		t.Errorf("no samples survived the corruption soak: %+v", st)
	}
	t.Logf("corruption soak: corrupted=%d decode_errors=%d status %+v", ns.Corrupted, st.DecodeErrors, st)
}
