package daemon_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/wire"
)

// TestStatusReplyRegistryMapping is the drift catcher: every StatusReply
// field must carry an obs tag naming an instrument that a live manager
// actually registers, and the chassis's reply must carry the live values
// end to end. Adding a reply field without backing it by a managerd
// instrument fails here instead of silently reading zero forever.
func TestStatusReplyRegistryMapping(t *testing.T) {
	c := harness.Start(t, harness.Options{Agents: 3, ControlEvery: time.Hour})
	c.AwaitAgents(3, 5*time.Second)
	harness.WaitUntil(t, 5*time.Second, func() bool { return c.Server.SamplesReceived() >= 3 },
		"samples never landed")
	c.Server.StepCycle()

	rt := reflect.TypeOf(wire.StatusReply{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name := f.Tag.Get("obs")
		if name == "" {
			t.Errorf("StatusReply.%s has no obs tag", f.Name)
			continue
		}
		if !c.Server.Obs().Has(name) {
			t.Errorf("StatusReply.%s maps to instrument %q, which the manager never registers", f.Name, name)
		}
	}

	st := c.Server.Status()
	if st.Cycles != 1 || st.Agents != 3 || st.Shards == 0 {
		t.Errorf("mapped reply looks dead: %+v", st)
	}
	if st.LastPowerW <= 0 {
		t.Errorf("last power not mapped: %+v", st.LastPowerW)
	}
	if st.LastCollectMicros < 0 || st.CollectMicros < st.LastCollectMicros {
		t.Errorf("collect times inconsistent: last=%d total=%d", st.LastCollectMicros, st.CollectMicros)
	}
}

// The reply reports, and does not invent: a field reads its instrument
// when the daemon registers one and zero when it does not.
func TestStatusFromRegistryMissingInstrument(t *testing.T) {
	var s stub
	c := newChassis(t, &s, nil)
	c.Obs().Gauge("agents").SetInt(5)
	st := c.Status()
	if !st.Leader || st.Agents != 5 {
		t.Errorf("registered instruments not read: leader %v, agents %d", st.Leader, st.Agents)
	}
	if st.Cycles != 0 || st.Shards != 0 || st.LastPowerW != 0 || st.Trained {
		t.Errorf("a field without an instrument reads nonzero: %+v", st)
	}
}
