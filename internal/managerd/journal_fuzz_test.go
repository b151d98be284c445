package managerd

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/replica"
)

// FuzzJournalLoad throws arbitrary snapshot and append-log bytes at the
// journal load path and checks the recovery contract: loading either
// cold-starts cleanly or yields a fully valid state (no negative levels,
// no duplicate nodes, sequence bookkeeping consistent) — never a partial
// one — the loaded state is stable across a reload, and daemon
// construction over the journal never fails because of its contents.
func FuzzJournalLoad(f *testing.F) {
	f.Add(
		[]byte(`{"saved_at_cycle":3,"last_seq":2,"pl_w":900,"ph_w":950,"levels":[{"node":1,"level":4}]}`),
		[]byte(`{"seq":3,"cycle":4,"levels":[{"node":2,"level":0}]}`+"\n"),
	)
	f.Add([]byte(``), []byte(``))
	f.Add([]byte(`not json at all{{{`), []byte(`{"seq":1,"cycle":1,"levels":[{"node":0,"level":1}]}`+"\n"))
	f.Add(
		[]byte(`{"saved_at_cycle":1,"levels":[{"node":0,"level":-3}]}`),
		[]byte(`{"seq":9,"levels":[{"node":-1,"level":2}]}`+"\n"+`{"seq":10`),
	)
	f.Add(
		// Duplicate then gap: replay keeps the valid prefix only.
		[]byte(`{"saved_at_cycle":2,"last_seq":2,"levels":[{"node":3,"level":1}]}`),
		[]byte(`{"seq":2,"cycle":2,"levels":[{"node":3,"level":1}]}`+"\n"+
			`{"seq":3,"cycle":3,"levels":[{"node":3,"level":0}]}`+"\n"+
			`{"seq":7,"cycle":9,"levels":[{"node":3,"level":9}]}`+"\n"),
	)
	f.Add(
		// A reset entry mid-log replaces everything before it.
		[]byte(``),
		[]byte(`{"seq":5,"reset":{"saved_at_cycle":8,"last_seq":5,"levels":[{"node":4,"level":2}]}}`+"\n"+
			`{"seq":6,"cycle":9,"levels":[{"node":4,"level":1}]}`+"\n"),
	)

	f.Fuzz(runJournalLoadBody)
}

func runJournalLoadBody(t *testing.T, snap, log []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.json")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".log", log, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := replica.Open(path)
	if err != nil {
		t.Fatalf("open over writable dir failed: %v", err)
	}
	state := st.State()
	checkSnapshotInvariants(t, state)
	if state.LastSeq != st.Seq() {
		t.Fatalf("snapshot seq %d != store seq %d", state.LastSeq, st.Seq())
	}
	st.Close()

	// Open compacted the load into a fresh snapshot: reopening must
	// reproduce the state bit for bit.
	st2, err := replica.Open(path)
	if err != nil {
		t.Fatalf("reopen failed: %v", err)
	}
	state2 := st2.State()
	st2.Close()
	if !reflect.DeepEqual(state, state2) {
		t.Fatalf("reload unstable:\n first %+v\nsecond %+v", state, state2)
	}

	// The daemon must construct over any journal contents. Gated on the
	// journal actually carrying state: the cold-start path is exercised by
	// unit tests, and skipping it here keeps the mutation throughput on
	// the parsing/replay code where the fuzzer earns its keep.
	if len(state.Levels) == 0 && state.Learner == nil {
		return
	}
	srv, err := New(Config{
		Addr:         "127.0.0.1:0",
		Model:        power.TianheNode(),
		Policy:       policy.MPC{},
		Tg:           3,
		ControlEvery: time.Minute,
		Thresholds:   power.Thresholds{PL: 1e6, PH: 2e6},
		HA:           daemon.HA{JournalPath: path},
	})
	if err != nil {
		t.Fatalf("journal contents failed daemon construction: %v", err)
	}
	if rep := srv.Status(); rep.LostNodes != len(state.Levels) {
		t.Fatalf("restored %d journal nodes, tracked %d as lost", len(state.Levels), rep.LostNodes)
	}
	srv.Stop()
}

func checkSnapshotInvariants(t *testing.T, s replica.Snapshot) {
	t.Helper()
	if s.SavedAtCycle < 0 {
		t.Fatalf("negative cycle survived load: %+v", s)
	}
	for i, l := range s.Levels {
		if l.Node < 0 || l.Level < 0 {
			t.Fatalf("invalid level survived load: %+v", l)
		}
		if i > 0 && s.Levels[i-1].Node >= l.Node {
			t.Fatalf("levels unsorted or duplicated: %+v", s.Levels)
		}
	}
}
