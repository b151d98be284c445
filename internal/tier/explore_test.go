package tier

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/power"
	"repro/internal/proptest"
	"repro/internal/wire"
)

// The bounded explorer's world: the grantorCore of a facility over the
// governorCores of two cabinets, shaped as the daemons ship — Floor 0 W,
// StaleAfter and Grace of three periods, each cabinet's Initial and
// Failsafe its own band, an equal share of the parent's — with one FIFO
// queue per direction per edge and a virtual clock. The two cabinets'
// demands swap every period, so every division shrinks one and grows the
// other.
const (
	fedPeriod = time.Second // the grantor's cycle and each child's report period
	fedKids   = 2
)

var (
	fedStart   = time.Unix(0, 0)
	fedBand    = power.Thresholds{PL: 100, PH: 110}
	fedOwn     = power.Thresholds{PL: 50, PH: 55}
	fedGrantor = GrantorConfig{Division: budget.Proportional, StaleAfter: 3 * fedPeriod}
	fedGovs    = [fedKids]GovernorConfig{
		{Child: 0, ReportEvery: fedPeriod, Grace: 3 * fedPeriod, Initial: fedOwn, Failsafe: fedOwn},
		{Child: 1, ReportEvery: fedPeriod, Grace: 3 * fedPeriod, Initial: fedOwn, Failsafe: fedOwn},
	}
)

// fedDemand is child i's demand in period k: 300 W and 100 W, swapping.
func fedDemand(i int, k int64) float64 {
	if (int64(i)+k)%2 == 0 {
		return 300
	}
	return 100
}

// fedModel is one state of that world.
type fedModel struct {
	now      time.Duration // since fedStart
	g        grantorCore
	kids     [fedKids]governorCore
	up, down [fedKids][]wire.Envelope // reports in flight, grants in flight
	cut      int                      // the partitioned child, or -1
}

func newFedModel() *fedModel {
	m := &fedModel{g: grantorCore{cfg: &fedGrantor}, cut: -1}
	for i := range m.kids {
		m.kids[i] = governorCore{cfg: &fedGovs[i], last: fedStart}
	}
	return m
}

func (m *fedModel) clone() *fedModel {
	c := *m
	c.g.children = make([]*childState, len(m.g.children))
	for i, cs := range m.g.children {
		dup := *cs
		c.g.children[i] = &dup
	}
	c.g.grants, c.g.demands = nil, nil
	for i := range m.up {
		c.up[i] = append([]wire.Envelope(nil), m.up[i]...)
		c.down[i] = append([]wire.Envelope(nil), m.down[i]...)
	}
	return &c
}

// The actions, in the order the explorer tries them. A repro is the line
// of their names that leads from newFedModel to the state it shows.
//
//	tick     advance virtual time to the next deadline (see advance)
//	upN dnN  deliver the head of child N's report (up) or grant (down) queue
//	-upN -dnN  drop that head
//	cutN     partition child N for good: both queues emptied, nothing more crosses
func (m *fedModel) enabled() []string {
	var acts []string
	for _, dir := range []string{"up", "dn"} {
		for i := range m.kids {
			if len(*m.queue(dir, i)) > 0 {
				acts = append(acts, dir+strconv.Itoa(i))
			}
		}
	}
	acts = append(acts, "tick")
	for _, dir := range []string{"up", "dn"} {
		for i := range m.kids {
			if len(*m.queue(dir, i)) > 0 {
				acts = append(acts, "-"+dir+strconv.Itoa(i))
			}
		}
	}
	if m.cut < 0 {
		for i := range m.kids {
			acts = append(acts, "cut"+strconv.Itoa(i))
		}
	}
	return acts
}

func (m *fedModel) queue(dir string, i int) *[]wire.Envelope {
	if dir == "up" {
		return &m.up[i]
	}
	return &m.down[i]
}

// apply performs one action.
func (m *fedModel) apply(act string) error {
	now := fedStart.Add(m.now)
	drop := strings.HasPrefix(act, "-")
	name := strings.TrimPrefix(act, "-")
	if name == "tick" && !drop {
		m.advance()
		return nil
	}
	if len(name) < 3 {
		return fmt.Errorf("unknown action %q", act)
	}
	i, err := strconv.Atoi(name[len(name)-1:])
	if err != nil || i >= fedKids {
		return fmt.Errorf("unknown action %q", act)
	}
	switch dir := name[:len(name)-1]; {
	case dir == "cut" && !drop && m.cut < 0:
		m.cut = i
		m.up[i], m.down[i] = nil, nil
	case dir == "up" || dir == "dn":
		q := m.queue(dir, i)
		if len(*q) == 0 {
			return fmt.Errorf("%s: queue empty", act)
		}
		env := (*q)[0]
		*q = (*q)[1:]
		if drop {
			return nil
		}
		if dir == "up" {
			cs, _ := m.g.track(i)
			m.g.report(cs, &env, now)
		} else {
			m.kids[i].grant(&env, now)
		}
	default:
		return fmt.Errorf("action %q not enabled", act)
	}
	return nil
}

// advance steps virtual time to the next deadline: a period boundary, or
// the first instant past a child's grace. Each child's control loop asks
// its band there; at a period boundary each child also reports, and the
// grantor cycles and sends its grants, shrinks first. A StaleAfter
// deadline is the next period boundary after it: the grantor classifies
// only when it cycles, so the instant between changes nothing.
func (m *fedModel) advance() {
	next := (m.now/fedPeriod + 1) * fedPeriod
	for i := range m.kids {
		if d := m.kids[i].last.Sub(fedStart) + m.kids[i].cfg.Grace + 1; d > m.now {
			next = min(next, d)
		}
	}
	m.now = next
	now := fedStart.Add(next)
	for i := range m.kids {
		thr, _ := m.kids[i].band(now)
		if next%fedPeriod != 0 {
			continue
		}
		k := &m.kids[i]
		k.lastP = fedDemand(i, int64(next/fedPeriod))
		k.lastD = k.lastP
		if env := k.report(Snapshot{AppliedPLW: float64(thr.PL), AppliedPHW: float64(thr.PH)}); m.cut != i {
			m.up[i] = append(m.up[i], env)
		}
	}
	if next%fedPeriod != 0 {
		return
	}
	grants, _ := m.g.cycle(fedBand, now)
	for i := range grants {
		gr := &grants[i]
		m.g.sent(gr)
		if child := gr.cs.Cabinet; m.cut != child {
			m.down[child] = append(m.down[child], wire.Envelope{
				Type: wire.KindCabBudget, Node: child, Seq: gr.seq, BudgetW: gr.w, PHW: gr.ph,
			})
		}
	}
}

// view is the state as the federation checker reads it.
func (m *fedModel) view() fedView {
	now := fedStart.Add(m.now)
	v := fedView{BandPL: float64(fedBand.PL), Grace: fedGovs[0].Grace}
	for i := range m.kids {
		k := m.kids[i] // a copy: reading the band must not tick the model
		thr, _ := k.band(now)
		c := fedChild{
			Granted: k.haveGrant, EnforcedPL: float64(thr.PL), FailsafePL: float64(k.cfg.Failsafe.PL),
			Silent: now.Sub(k.last), AdoptedSeq: k.grantSeq,
		}
		for _, cs := range m.g.children {
			if cs.Cabinet == i {
				c.Lost, c.AccountPL, c.SentSeq = !cs.Live, cs.GrantW, cs.GrantSeq
				if c.Lost {
					c.AccountPL = float64(fedGrantor.Floor)
				}
			}
		}
		v.Children = append(v.Children, c)
	}
	return v
}

// key hashes everything that decides the model's future.
func (m *fedModel) key() string {
	b := make([]byte, 0, 256)
	num := func(xs ...float64) {
		for _, x := range xs {
			b = strconv.AppendUint(b, math.Float64bits(x), 36)
			b = append(b, ',')
		}
	}
	num(float64(m.now), float64(m.cut), float64(m.g.seq))
	for _, cs := range m.g.children {
		num(float64(cs.Cabinet), float64(cs.lastSeen.Sub(fedStart)), cs.PowerW, cs.DemandW, cs.AppliedW,
			float64(cs.AppliedSeq), cs.GrantW, float64(cs.GrantSeq), float64(b2f(cs.Live)))
	}
	for i := range m.kids {
		k := &m.kids[i]
		num(float64(k.thr.PL), float64(k.thr.PH), b2f(k.haveGrant), b2f(k.floored), float64(k.grantSeq),
			float64(k.last.Sub(fedStart)), k.lastP, k.lastD)
		for _, q := range [][]wire.Envelope{m.up[i], m.down[i]} {
			b = append(b, '|')
			for _, e := range q {
				num(float64(e.Seq), e.BudgetW, e.PHW, e.PowerW, e.DemandW)
			}
		}
	}
	return string(b)
}

// replayFed runs a repro line from the initial state.
func replayFed(line string) (*fedModel, error) {
	m := newFedModel()
	for _, act := range strings.Fields(line) {
		if err := m.apply(act); err != nil {
			return m, err
		}
	}
	return m, nil
}

// fedExploration is what one bounded breadth-first search found.
type fedExploration struct {
	states, depth int
	elapsed       time.Duration
	first         map[string]string // P1 signature → its shortest repro
	hits          map[string]int    // P1 signature → states showing it
	unexpected    []string          // P1 violations of no known signature, and P2 violations: repro and error
}

// exploreFed searches every interleaving of actions up to depth, merging
// states that hash alike. A state that breaks P1 is recorded, not
// expanded.
func exploreFed(depth int) fedExploration {
	type node struct {
		parent *node
		act    string
		m      *fedModel
	}
	path := func(n *node) string {
		var acts []string
		for ; n.parent != nil; n = n.parent {
			acts = append(acts, n.act)
		}
		for i, j := 0, len(acts)-1; i < j; i, j = i+1, j-1 {
			acts[i], acts[j] = acts[j], acts[i]
		}
		return strings.Join(acts, " ")
	}
	t0 := time.Now()
	res := fedExploration{first: map[string]string{}, hits: map[string]int{}}
	root := &node{m: newFedModel()}
	seen := map[string]bool{root.m.key(): true}
	frontier := []*node{root}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		res.depth = d
		var next []*node
		for _, n := range frontier {
			for _, act := range n.m.enabled() {
				m := n.m.clone()
				if err := m.apply(act); err != nil {
					panic(err)
				}
				k := m.key()
				if seen[k] {
					continue
				}
				seen[k] = true
				child := &node{parent: n, act: act, m: m}
				v := m.view()
				if err := checkP2(v); err != nil {
					res.unexpected = append(res.unexpected, path(child)+": "+err.Error())
				}
				sig, err := checkP1(v)
				switch {
				case err == nil:
					next = append(next, child)
				case sig == "":
					res.unexpected = append(res.unexpected, path(child)+": "+err.Error())
				default:
					if res.hits[sig]++; res.first[sig] == "" {
						res.first[sig] = path(child)
					}
				}
			}
			n.m = nil
		}
		frontier = next
	}
	res.states = len(seen)
	res.elapsed = time.Since(t0)
	return res
}

// walkFed takes steps actions drawn from gen — time moves a third of the
// time, a frame is dropped or a child cut seldom — checking P1 and P2 in
// every state. It returns the walk as a repro line, the P1 signatures it
// met, and the first violation of no known signature.
func walkFed(gen *proptest.Generator, steps int) (line string, sigs map[string]bool, err error) {
	m := newFedModel()
	var acts []string
	sigs = map[string]bool{}
	for range steps {
		var deliver, other []string
		for _, a := range m.enabled() {
			switch {
			case a == "tick":
			case strings.HasPrefix(a, "up") || strings.HasPrefix(a, "dn"):
				deliver = append(deliver, a)
			default:
				other = append(other, a)
			}
		}
		act := "tick"
		if r := gen.Float64(); r >= 1.0/3 && len(deliver) > 0 && (r < 0.95 || len(other) == 0) {
			act = deliver[gen.Intn(len(deliver))]
		} else if r >= 0.95 && len(other) > 0 {
			act = other[gen.Intn(len(other))]
		}
		if err := m.apply(act); err != nil {
			return strings.Join(acts, " "), sigs, err
		}
		acts = append(acts, act)
		v := m.view()
		if err := checkP2(v); err != nil {
			return strings.Join(acts, " "), sigs, err
		}
		if sig, err := checkP1(v); sig != "" {
			sigs[sig] = true
		} else if err != nil {
			return strings.Join(acts, " "), sigs, err
		}
	}
	return strings.Join(acts, " "), sigs, nil
}

// fedPins are the ways the plane breaks P1 at this commit (ROADMAP item 3),
// each as the explorer's shortest counterexample. The change that closes
// one deletes its pin, and from then on any state showing it fails.
//   - 3(ii): at 2 s the facility grants cab0 all 100 W; at 3 s it divides
//     25/75 and cab1 adopts its 75 W before cab0 has adopted its 25 W.
//   - 3(i): neither report after the first is delivered, so the facility
//     counts both cabinets lost at 5 s and reserves Floor (0 W) for each,
//     while they keep their 25 and 75 W grants and cab0 floors to its
//     50 W failsafe at 5 s + 1 ns.
var fedPins = map[string]string{
	p1Unordered:   "tick up0 tick up1 dn0 tick dn1",
	p1Unaccounted: "tick up0 up1 tick dn0 tick dn1 tick tick tick",
}

// fedDepth bounds the search: the shortest pin is 7 actions, the longest 10.
const fedDepth = 10

// TestFederationExplorer searches every interleaving of report and grant
// delivery, frame loss, one partition and virtual time to fedDepth
// actions. P2 must hold throughout, and P1 may break only as pinned, each
// pin found unaided as the shortest counterexample of its signature.
func TestFederationExplorer(t *testing.T) {
	res := exploreFed(fedDepth)
	t.Logf("explored %d states to depth %d in %v; P1 broken in %v states", res.states, res.depth, res.elapsed.Round(time.Millisecond), res.hits)
	for _, u := range res.unexpected {
		t.Errorf("unpinned violation, repro %q", u)
	}
	for sig, repro := range res.first {
		if pin, ok := fedPins[sig]; !ok {
			t.Errorf("P1 broken as %s, which is no longer pinned: repro %q", sig, repro)
		} else if repro != pin {
			t.Errorf("shortest %s counterexample is %q, pinned %q", sig, repro, pin)
		}
	}
	for sig, pin := range fedPins {
		if res.first[sig] == "" {
			t.Errorf("pinned %s counterexample %q not found: if the plane now holds P1 there, delete the pin", sig, pin)
		}
	}
}

// TestFederationPinsReplay: each pinned line, replayed, ends in the state
// that breaks P1 with its signature, and one action short of it does not.
func TestFederationPinsReplay(t *testing.T) {
	for sig, pin := range fedPins {
		m, err := replayFed(pin)
		if err != nil {
			t.Fatalf("%s: %v", sig, err)
		}
		if got, err := checkP1(m.view()); got != sig {
			t.Errorf("%s repro %q ends with signature %q (%v)", sig, pin, got, err)
		}
		acts := strings.Fields(pin)
		m, _ = replayFed(strings.Join(acts[:len(acts)-1], " "))
		if _, err := checkP1(m.view()); err != nil {
			t.Errorf("%s repro %q already broken one action early: %v", sig, pin, err)
		}
	}
}

// TestFederationWalks runs seeded random walks past the explorer's depth.
// A failure prints the master seed (PROPTEST_SEED replays it) and the
// walk's repro line.
func TestFederationWalks(t *testing.T) {
	seen := map[string]bool{}
	proptest.Check(t, "federation walks", proptest.Config{NumTrials: 1000, Seed: 44}, func(g *proptest.Generator) error {
		line, sigs, err := walkFed(g, 120)
		for sig := range sigs {
			seen[sig] = true
			if _, ok := fedPins[sig]; !ok {
				return fmt.Errorf("P1 broken as unpinned %s; repro %q", sig, line)
			}
		}
		if err != nil {
			return fmt.Errorf("%v; repro %q", err, line)
		}
		return nil
	})
	t.Logf("walks broke P1 as %v", seen)
}

// TestFederationWalkReplays: one seed, one walk, action for action.
func TestFederationWalkReplays(t *testing.T) {
	a, _, errA := walkFed(proptest.NewGenerator(7), 60)
	b, _, errB := walkFed(proptest.NewGenerator(7), 60)
	if a != b || fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("seed 7 walked %q (%v), then %q (%v)", a, errA, b, errB)
	}
	m, err := replayFed(a)
	if err != nil || m.key() == newFedModel().key() {
		t.Fatalf("replaying seed 7's walk: %v", err)
	}
}
