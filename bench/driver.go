package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/scenario"
	jobs "repro/internal/workload"
)

const (
	sampleInterval = time.Second
	warmupEpisodes = 5
	grantSlack     = 1 + 1e-9 // Σ grants may exceed the band by float rounding only
)

// driver runs one workload's closed loop from a single goroutine: it
// pushes every sample, steps every tier and waits for every ack itself,
// so a round's duration is processor time of the plane and nothing else.
// Injected network delay and loss are zero.
type driver struct {
	w            *workload
	in           *inputs
	rig          *rig
	sibLo, sibHi float64
	tr           *tracer // nil when untraced

	// Verification state: counters that must not move, read per manager.
	frozen  []*obs.Counter
	frozen0 []int64

	rounds    int
	roundDur  []time.Duration // per round, push start → settled
	epRounds  []int           // cumulative round count at each episode end
	reactions []float64       // ms
	attempted int
	failed    int
	firstErr  error

	// Trace-run accumulators (see layers.go); filled only when tr != nil.
	acc traceAcc
}

func newDriver(w *workload, in *inputs, r *rig, sibLo, sibHi float64) *driver {
	d := &driver{w: w, in: in, rig: r, sibLo: sibLo, sibHi: sibHi}
	for _, cab := range r.cabs {
		reg := cab.Server.Obs()
		for _, name := range []string{"command_errors", "decode_errors", "reconciles", "budget_floors"} {
			c := reg.Counter(name)
			d.frozen = append(d.frozen, c)
			d.frozen0 = append(d.frozen0, c.Value())
		}
	}
	for _, row := range r.rows {
		c := row.Obs().Counter("budget_floors")
		d.frozen = append(d.frozen, c)
		d.frozen0 = append(d.frozen0, c.Value())
	}
	return d
}

// spinUntil yields the processor until cond holds. The driver is the only
// goroutine that is ever idle by choice, so yielding hands the core to
// whichever reader, sender or agent still has work, and the wait ends
// within a scheduler pass of the event instead of a timer tick after it.
func spinUntil(what string, cond func() bool) error {
	if cond() {
		return nil
	}
	deadline := time.Now().Add(waitLimit)
	for i := 1; ; i++ {
		runtime.Gosched()
		if cond() {
			return nil
		}
		if i%4096 == 0 && time.Now().After(deadline) {
			return fmt.Errorf("bench: timed out waiting for %s", what)
		}
	}
}

// round is one control period's traffic, as defined in README.md: push,
// ingest, step top-down, settle. It returns the round's duration, the
// commands issued, and the step-to-settled time.
func (d *driver) round(r int) (dur, reaction time.Duration, cmds int, err error) {
	rg, tr := d.rig, d.tr
	mix := d.w.mix[r]
	t0 := time.Now()
	root := tr.begin("round", -1)
	if tr != nil {
		tr.round.Store(int64(root))
	}

	if err := d.pushIngest(mix, root, false); err != nil {
		return 0, 0, 0, err
	}

	stepStart := time.Now()
	if rg.facility != nil {
		if stepStart, err = d.stepTiers(r, root); err != nil {
			return 0, 0, 0, err
		}
	}

	cmds, state, err := d.stepSettle(root)
	if err != nil {
		return 0, 0, 0, err
	}
	end := time.Now()
	tr.end(root, "")

	if d.w.decision || (cmds > 0 && state != "green") {
		reaction = end.Sub(stepStart)
	}
	return end.Sub(t0), reaction, cmds, nil
}

// pushIngest sends one sample per agent, carrying the level the agent
// currently applies, and waits until every manager has counted its share.
// With retry set a refused push is repeated: an agent registers at the
// manager an instant before its own send path is published.
func (d *driver) pushIngest(mix float64, root int, retry bool) error {
	rg, tr := d.rig, d.tr
	sp := tr.begin("push", root)
	base := make([]int64, len(rg.cabs))
	for c, cab := range rg.cabs {
		base[c] = cab.Server.SamplesReceived()
		for i, a := range cab.Agents {
			g := cab.first + i
			rd := manager.AgentReading{
				ID: node.ID(i), Level: int(rg.levels[g].Load()), MaxLevel: d.w.maxLevel,
				Delta: d.in.delta(g, mix), Job: jobs.JobID(d.in.job[g]),
			}
			err := a.PushReading(rd)
			if err != nil && retry {
				err = pollUntil("agent send path", func() bool { return a.PushReading(rd) == nil })
			}
			if err != nil {
				return err
			}
		}
	}
	tr.end(sp, "")

	sp = tr.begin("ingest_wait", root)
	for c, cab := range rg.cabs {
		want := base[c] + int64(len(cab.Agents))
		srv := cab.Server
		if err := spinUntil("samples ingested", func() bool { return srv.SamplesReceived() >= want }); err != nil {
			return err
		}
	}
	tr.end(sp, "")
	return nil
}

// stepTiers runs the federation above the cabinets for one round: the
// sibling reports, the facility re-divides, each row adopts its grant and
// re-divides, each cabinet adopts its grant. It returns the instant the
// facility's StepCycle began: the topmost call that sees the shift.
func (d *driver) stepTiers(r, root int) (time.Time, error) {
	rg, tr := d.rig, d.tr
	sp := tr.begin("sibling_report", root)
	demand := d.sibLo
	if d.w.sibHigh[r] {
		demand = d.sibHi
	}
	if err := rg.siblingReport(demand); err != nil {
		return time.Time{}, err
	}
	tr.end(sp, "")

	rowBase := make([]int64, len(rg.rows))
	for i, c := range rg.rowGrant {
		rowBase[i] = c.Value()
	}
	cabBase := make([]int64, len(rg.cabs))
	for i, cab := range rg.cabs {
		cabBase[i] = cab.grants.Value()
	}

	start := time.Now()
	sp = tr.begin("fedd_step.facility", root)
	rg.facility.StepCycle()
	tr.end(sp, "")
	sp = tr.begin("grant_hop", root)
	for i, c := range rg.rowGrant {
		c, want := c, rowBase[i]+1
		if err := spinUntil("row grant adopted", func() bool { return c.Value() >= want }); err != nil {
			return start, err
		}
	}
	tr.end(sp, "facility")
	for _, row := range rg.rows {
		sp = tr.begin("fedd_step.row", root)
		row.StepCycle()
		tr.end(sp, "")
	}
	sp = tr.begin("grant_hop", root)
	for i, cab := range rg.cabs {
		c, want := cab.grants, cabBase[i]+1
		if err := spinUntil("cabinet grant adopted", func() bool { return c.Value() >= want }); err != nil {
			return start, err
		}
	}
	tr.end(sp, "row")
	return start, nil
}

// stepSettle steps every manager once and waits until every commanded
// agent's Apply has returned and no manager holds an unacked command. It
// returns the commands issued and the state of the cycles that issued them.
func (d *driver) stepSettle(root int) (cmds int, state string, err error) {
	rg, tr := d.rig, d.tr
	applied0 := rg.applied.Load()
	for _, cab := range rg.cabs {
		sp := tr.begin("managerd_step", root)
		fan := cab.Server.StepCycle()
		rec := &cab.recs[len(cab.recs)-1]
		cmds += len(rec.Actions)
		tag := rec.State
		if tag == "green" {
			tag = "green_quiet"
			if len(rec.Actions) > 0 {
				tag = "green_restore"
			}
		}
		tr.end(sp, tag)
		if len(rec.Actions) > 0 {
			state = rec.State
			d.acc.fanout += fan
		}
	}

	sp := tr.begin("apply_wait", root)
	want := applied0 + int64(cmds)
	if err := spinUntil("commands applied", func() bool { return rg.applied.Load() >= want }); err != nil {
		return 0, "", err
	}
	tr.end(sp, "")
	sp = tr.begin("ack_wait", root)
	for _, cab := range rg.cabs {
		srv := cab.Server
		if err := spinUntil("commands acked", func() bool { return srv.UnackedCommands() == 0 }); err != nil {
			return 0, "", err
		}
	}
	tag := ""
	if cmds > 0 {
		tag = "commanded"
	}
	tr.end(sp, tag)
	return cmds, state, nil
}

// checkRound verifies one settled round: each manager ran exactly one
// cycle in the expected state with the expected number of commands, every
// commanded agent sits at its commanded level, and in a tree no tier
// granted more than its band.
func (d *driver) checkRound(r int) error {
	rg := d.rig
	ex := d.w.expect[r]
	for c, cab := range rg.cabs {
		if len(cab.recs) != r+1 {
			return fmt.Errorf("cabinet %d: %d cycle records after round %d", c, len(cab.recs), r)
		}
		rec := &cab.recs[r]
		if rec.State != ex.state && (ex.state != "" || rec.State == "red") {
			return fmt.Errorf("cabinet %d round %d: state %s (p=%.0f pl=%.0f ph=%.0f), want %q",
				c, r, rec.State, rec.PowerW, rec.PLW, rec.PHW, ex.state)
		}
		if ex.cmds >= 0 && len(rec.Actions) != ex.cmds {
			return fmt.Errorf("cabinet %d round %d: %d commands, want %d", c, r, len(rec.Actions), ex.cmds)
		}
		for _, a := range rec.Actions {
			if got := int(rg.levels[cab.first+a.Node].Load()); got != a.Level {
				return fmt.Errorf("cabinet %d node %d: at level %d after a command to %d", c, a.Node, got, a.Level)
			}
		}
	}
	if rg.facility == nil {
		return nil
	}
	granted := 0.0
	rowBand := map[int]float64{}
	for _, cs := range rg.facility.CabinetStates() {
		granted += cs.GrantW
		rowBand[cs.Cabinet] = cs.GrantW
	}
	if granted > float64(rg.cfg.budget)*grantSlack {
		return fmt.Errorf("facility granted %.1f W over a %.1f W budget", granted, float64(rg.cfg.budget))
	}
	for i, row := range rg.rows {
		granted = 0
		for _, cs := range row.CabinetStates() {
			granted += cs.GrantW
		}
		if granted > rowBand[i]*grantSlack {
			return fmt.Errorf("row %d granted %.1f W over its %.1f W band", i, granted, rowBand[i])
		}
	}
	return nil
}

// checkEpisode verifies an episode ended where it began, that no error or
// repair counter moved, and that each manager's trace of the episode
// satisfies Algorithm 1. The trace covers this episode only: an episode
// starts from a state in which the checker's green streak correctly counts
// from zero, so earlier ones need not be kept.
func (d *driver) checkEpisode() error {
	rg := d.rig
	for g := range rg.levels {
		if l := int(rg.levels[g].Load()); l != d.w.maxLevel {
			return fmt.Errorf("agent %d ends the episode at level %d, want %d", g, l, d.w.maxLevel)
		}
	}
	for i, c := range d.frozen {
		if v := c.Value(); v != d.frozen0[i] {
			return fmt.Errorf("an error, reconcile or floor counter moved from %d to %d", d.frozen0[i], v)
		}
	}
	for c, cab := range rg.cabs {
		if err := scenario.CheckAlgorithmOne(cab.recs, d.w.tg); err != nil {
			return fmt.Errorf("cabinet %d: %w", c, err)
		}
	}
	return nil
}

// episode runs one operation. A verification failure fails the episode
// and the run goes on; a failure to make progress (an error from round)
// ends the run.
func (d *driver) episode(measured bool) (fatal error) {
	rg := d.rig
	for _, cab := range rg.cabs {
		cab.recs = cab.recs[:0]
	}
	var verr error
	for r := range d.w.mix {
		var a0, b0 uint64
		if d.tr != nil {
			a0, b0 = heapAllocs()
		}
		dur, reaction, cmds, err := d.round(r)
		if err != nil {
			return err
		}
		if d.tr != nil {
			a1, b1 := heapAllocs()
			d.acc.allocs += a1 - a0
			d.acc.bytes += b1 - b0
			d.acc.cmds += cmds
			d.acc.betweenRounds(rg)
		}
		if measured {
			d.rounds++
			d.roundDur = append(d.roundDur, dur)
			if reaction > 0 {
				d.reactions = append(d.reactions, float64(reaction)/float64(time.Millisecond))
			}
		}
		if err := d.checkRound(r); err != nil && verr == nil {
			verr = err
		}
	}
	if verr == nil {
		verr = d.checkEpisode()
	}
	if measured {
		d.epRounds = append(d.epRounds, d.rounds)
		d.attempted++
		if verr != nil {
			d.failed++
		}
	}
	if verr != nil && d.firstErr == nil {
		d.firstErr = verr
	}
	return nil
}

// warmup makes every agent's send path live, lets demand reach every tier
// of a tree, returns the fleet to its top level and then runs warm
// verified episodes. It is part of set-up. A warm-up episode that fails
// verification is kept as firstErr and fails the measured ones after it.
func (d *driver) warmup(warm int) error {
	rg := d.rig
	calm := len(d.w.mix) - 1 // every script ends on a calm round
	if err := d.pushIngest(d.w.mix[calm], -1, true); err != nil {
		return err
	}
	if _, _, err := d.stepSettle(-1); err != nil {
		return err
	}
	if rg.facility != nil {
		// Demand climbs one tier per report period: cabinets sensed it in
		// the cycle above, rows learn it from the next cab_report and roll
		// it up in a cycle of their own, the facility learns it from the
		// rows' next reports. Until then a proportional division has
		// nothing to weigh the real rows by.
		for _, row := range rg.rows {
			row := row
			err := pollUntil("cabinet demand at the row", func() bool {
				for _, cs := range row.CabinetStates() {
					if cs.DemandW <= 0 {
						return false
					}
				}
				row.StepCycle()
				return true
			})
			if err != nil {
				return err
			}
		}
		err := pollUntil("row demand at the facility", func() bool {
			for _, cs := range rg.facility.CabinetStates() {
				if cs.Cabinet < len(rg.rows) && cs.DemandW <= 0 {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	// Calm rounds until nothing is commanded and the fleet is at its top.
	for i := 0; ; i++ {
		_, _, cmds, err := d.round(calm)
		if err != nil {
			return err
		}
		top := true
		for g := range rg.levels {
			top = top && int(rg.levels[g].Load()) == d.w.maxLevel
		}
		if cmds == 0 && top && i >= d.w.tg {
			break
		}
		if i > 64 {
			return fmt.Errorf("bench: fleet did not return to its top level during warm-up")
		}
	}
	for i := range d.frozen {
		d.frozen0[i] = d.frozen[i].Value()
	}
	for i := 0; i < warm; i++ {
		if err := d.episode(false); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the end-of-run checks that need a quiet plane: the follower
// has caught up to within one entry and, once the leader has stopped and
// compacted, its copy equals the leader's journal.
func (d *driver) finish() error {
	rg := d.rig
	if rg.followStore == nil {
		return nil
	}
	srv := rg.cabs[0].Server
	if lag := srv.Status().ReplicaLagEntries; lag > 1 {
		return fmt.Errorf("follower lags %d entries at end of run", lag)
	}
	head := uint64(srv.Status().JournalAppends)
	if err := pollUntil("follower caught up", func() bool { return rg.followStore.Seq() >= head }); err != nil {
		return err
	}
	rg.cabs[0].Stop()
	leader, err := replica.ReadState(filepath.Join(rg.cfg.dir, "journal.json"))
	if err != nil {
		return err
	}
	follower := rg.followStore.State()
	// SavedAtCycle advances on quiet cycles too, which are never
	// replicated; everything a takeover needs must match.
	leader.SavedAtCycle, follower.SavedAtCycle = 0, 0
	if !reflect.DeepEqual(leader, follower) {
		return fmt.Errorf("follower state differs from the leader's journal (seq %d vs %d)", follower.LastSeq, leader.LastSeq)
	}
	return nil
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// heapAllocs reads the cumulative allocation counters without stopping
// the world.
func heapAllocs() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// scratchDir makes a private directory under out/ for journal and lease
// files; everything the benchmark writes stays inside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp("out", "run-")
}
