package policy

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/node"
	"repro/internal/units"
	"repro/internal/workload"
)

// snap builds a snapshot with three jobs:
//
//	job 1 ("big"):   nodes 0-3, 300 W each, prev 290 W  (most power)
//	job 2 ("small"): nodes 4-5, 200 W each, prev 100 W  (fastest rise)
//	job 3 ("tiny"):  node 6,    150 W,      prev 150 W  (least power)
//
// plus idle node 7 and floor-level node 8 (both must never be selected).
func snap() *Snapshot {
	s := &Snapshot{P: units.KW(35), PL: units.KW(34)}
	add := func(id int, level int, idle bool, est, prev float64, job workload.JobID) {
		atLowest := level == 0
		lower := est - 15
		if atLowest {
			lower = est
		}
		s.Nodes = append(s.Nodes, NodeState{
			ID: node.ID(id), Level: level, MaxLevel: 9, AtLowest: atLowest,
			Idle: idle, Est: units.Watts(est), EstLower: units.Watts(lower),
			PrevEst: units.Watts(prev), Job: job,
		})
	}
	for i := 0; i < 4; i++ {
		add(i, 9, false, 300, 290, 1)
	}
	for i := 4; i < 6; i++ {
		add(i, 7, false, 200, 100, 2)
	}
	add(6, 5, false, 150, 150, 3)
	add(7, 9, true, 140, 140, 0)  // idle node
	add(8, 0, false, 160, 160, 3) // floor-level node of job 3
	jobs := map[workload.JobID][]int{1: {0, 1, 2, 3}, 2: {4, 5}, 3: {6, 8}}
	for _, jid := range []workload.JobID{1, 2, 3} {
		js := JobState{ID: jid}
		for _, nid := range jobs[jid] {
			n := s.Nodes[nid]
			js.Nodes = append(js.Nodes, nid)
			js.Power += n.Est
			js.PrevPower += n.PrevEst
			js.Saving += n.Est - n.EstLower
		}
		s.Jobs = append(s.Jobs, js)
	}
	return s
}

// selectIDs runs p on s and returns the selected nodes' IDs, ascending.
func selectIDs(p Policy, s *Snapshot) []int {
	var out []int
	for _, pos := range p.Select(s) {
		out = append(out, int(s.Nodes[pos].ID))
	}
	sort.Ints(out)
	return out
}

func TestMPCSelectsMostPowerConsumingJob(t *testing.T) {
	got := selectIDs(MPC{}, snap())
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("MPC selected %v, want job 1's nodes", got)
	}
}

func TestLPCSelectsLeastPowerConsumingJob(t *testing.T) {
	got := selectIDs(LPC{}, snap())
	// Job 3 is least power; its floor-level node 8 must be excluded.
	if !reflect.DeepEqual(got, []int{6}) {
		t.Errorf("LPC selected %v, want [6]", got)
	}
}

func TestHRISelectsFastestRisingJob(t *testing.T) {
	got := selectIDs(HRI{}, snap())
	if !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("HRI selected %v, want job 2's nodes", got)
	}
}

func TestRateOfIncrease(t *testing.T) {
	j := JobState{Power: 220, PrevPower: 200}
	if r := j.RateOfIncrease(); math.Abs(r-0.1) > 1e-12 {
		t.Errorf("rate = %v, want 0.1", r)
	}
	if r := (JobState{Power: 100}).RateOfIncrease(); r != 0 {
		t.Errorf("first-seen job rate = %v, want 0 (unknown)", r)
	}
	j = JobState{Power: 180, PrevPower: 200}
	if r := j.RateOfIncrease(); r >= 0 {
		t.Errorf("falling job rate = %v, want negative", r)
	}
}

func TestMPCCStopsWhenSavingCovers(t *testing.T) {
	s := snap()
	// Need P − PL = 1 kW; job 1 saves 4×15 = 60 W, job 2 30 W, job 3
	// 15 W: all jobs accumulate (total 105 < 1000).
	got := selectIDs(MPCC{}, s)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Errorf("MPC-C = %v, want all degradable nodes", got)
	}
	// With a tiny deficit, only the most power consuming job is taken.
	s.P, s.PL = units.KW(34.05), units.KW(34)
	got = selectIDs(MPCC{}, s)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("MPC-C with 50 W deficit = %v, want job 1 only", got)
	}
}

func TestLPCCStartsFromLeastPower(t *testing.T) {
	s := snap()
	s.P, s.PL = units.KW(34.01), units.KW(34)
	got := selectIDs(LPCC{}, s)
	if !reflect.DeepEqual(got, []int{6}) {
		t.Errorf("LPC-C with 10 W deficit = %v, want tiny job only", got)
	}
}

func TestHRICOrdering(t *testing.T) {
	s := snap()
	s.P, s.PL = units.KW(34.02), units.KW(34)
	// 20 W deficit; fastest riser (job 2) saves 30 W ≥ 20: stop there.
	got := selectIDs(HRIC{}, s)
	if !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("HRI-C = %v, want job 2's nodes", got)
	}
}

func TestBFPPicksBestFit(t *testing.T) {
	s := snap()
	// Deficit 25 W: job 2 saves 30 (fits, excess 5), job 1 saves 60
	// (fits, excess 35), job 3 saves 15 (doesn't fit) → job 2.
	s.P, s.PL = units.KW(34.025), units.KW(34)
	got := selectIDs(BFP{}, s)
	if !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("BFP = %v, want job 2 (best fit)", got)
	}
	// Deficit larger than any single job's saving → largest saving.
	s.P, s.PL = units.KW(35), units.KW(34)
	got = selectIDs(BFP{}, s)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("BFP fallback = %v, want job 1 (largest saving)", got)
	}
}

func TestNoneSelectsNothing(t *testing.T) {
	if got := (None{}).Select(snap()); got != nil {
		t.Errorf("None selected %v", got)
	}
}

func TestAllSelectsEveryDegradableCandidate(t *testing.T) {
	got := selectIDs(All{}, snap())
	// Everything except idle node 7 and floor node 8.
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Errorf("All = %v", got)
	}
}

func TestRandomSelectsOneJob(t *testing.T) {
	r := Random{Rng: rand.New(rand.NewSource(1))}
	jobSets := map[string]bool{}
	for i := 0; i < 100; i++ {
		got := selectIDs(r, snap())
		if len(got) == 0 {
			t.Fatal("Random selected nothing")
		}
		key := ""
		for _, id := range got {
			key += string(rune('a' + id))
		}
		jobSets[key] = true
	}
	if len(jobSets) < 2 {
		t.Error("Random always picked the same job over 100 draws")
	}
	// nil rng degrades to deterministic first job.
	if got := selectIDs(Random{}, snap()); len(got) == 0 {
		t.Error("nil-rng Random selected nothing")
	}
}

func TestEmptySnapshot(t *testing.T) {
	empty := &Snapshot{P: 100, PL: 90}
	for _, name := range Names() {
		p, err := New(name, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Select(empty); len(got) != 0 {
			t.Errorf("%s selected %v from empty snapshot", name, got)
		}
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := New("does-not-exist", nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestNewCoversAllNames(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
}

// Property: no policy ever selects an idle or floor-level node — §III.B's
// validity requirement — for randomly generated snapshots.
func TestNoPolicySelectsUndegradableProperty(t *testing.T) {
	policies := make([]Policy, 0, len(Names()))
	for _, name := range Names() {
		p, _ := New(name, rand.New(rand.NewSource(2)))
		policies = append(policies, p)
	}
	f := func(seed int64, nNodes uint8, deficit uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nNodes%40) + 1
		s := &Snapshot{P: units.Watts(30000 + float64(deficit)), PL: 30000}
		jobs := make([]JobState, 5) // by job ID; 0 = no job
		for i := 0; i < n; i++ {
			level := rng.Intn(10)
			est := 120 + rng.Float64()*200
			lower := est - rng.Float64()*20
			if level == 0 {
				lower = est
			}
			jid := workload.JobID(rng.Intn(5)) // 0 = no job
			ns := NodeState{
				ID: node.ID(i), Level: level, MaxLevel: 9,
				AtLowest: level == 0, Idle: rng.Float64() < 0.2,
				Est: units.Watts(est), EstLower: units.Watts(lower),
				PrevEst: units.Watts(est * (0.8 + rng.Float64()*0.4)),
				Job:     jid,
			}
			s.Nodes = append(s.Nodes, ns)
			if jid != 0 && !ns.Idle {
				js := &jobs[jid]
				js.ID = jid
				js.Nodes = append(js.Nodes, i)
				js.Power += ns.Est
				js.PrevPower += ns.PrevEst
				js.Saving += ns.Est - ns.EstLower
			}
		}
		for _, js := range jobs {
			if js.ID != 0 {
				s.Jobs = append(s.Jobs, js)
			}
		}
		for _, p := range policies {
			for _, pos := range p.Select(s) {
				if st := s.Nodes[pos]; st.Idle || st.AtLowest {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: collection policies' selections are supersets-or-equal when
// the deficit grows (more power to shed never selects fewer nodes), on a
// fixed snapshot.
func TestCollectionMonotoneInDeficit(t *testing.T) {
	s1, s2 := snap(), snap()
	s1.P, s1.PL = units.KW(34.02), units.KW(34)
	s2.P, s2.PL = units.KW(34.08), units.KW(34)
	small := selectIDs(MPCC{}, s1)
	large := selectIDs(MPCC{}, s2)
	if len(large) < len(small) {
		t.Errorf("larger deficit selected fewer nodes: %v vs %v", large, small)
	}
	set := map[int]bool{}
	for _, id := range large {
		set[id] = true
	}
	for _, id := range small {
		if !set[id] {
			t.Errorf("small-deficit selection %v not a subset of %v", small, large)
		}
	}
}

func TestMinCostPrefersInsensitiveJobs(t *testing.T) {
	// Two jobs with equal power and saving; job 1 compute-bound (util
	// 0.95), job 2 comm-bound (util 0.4): mincost must target job 2.
	s := &Snapshot{P: units.KW(35), PL: units.KW(34)}
	add := func(id int, util float64, job workload.JobID) {
		ns := NodeState{
			ID: node.ID(id), Level: 9, MaxLevel: 9,
			Est: 300, EstLower: 285, PrevEst: 300,
			CPUUtil: util, Job: job,
		}
		s.Nodes = append(s.Nodes, ns)
	}
	add(0, 0.95, 1)
	add(1, 0.95, 1)
	add(2, 0.40, 2)
	add(3, 0.40, 2)
	s.Jobs = []JobState{
		{ID: 1, Nodes: []int{0, 1}, Power: 600, Saving: 30, Util: 0.95},
		{ID: 2, Nodes: []int{2, 3}, Power: 600, Saving: 30, Util: 0.40},
	}
	got := selectIDs(MinCost{}, s)
	if !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("mincost selected %v, want the comm-bound job's nodes [2 3]", got)
	}
	// With equal utilisation, the bigger saving wins.
	s.Jobs[0].Util = 0.40
	s.Jobs[0].Saving = 60
	got = selectIDs(MinCost{}, s)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("mincost with equal util selected %v, want bigger saving [0 1]", got)
	}
}
