package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"testing"

	"murphy"
	"murphy/internal/microsim"
	"murphy/internal/timeseries"
)

// TestKillAndRestartWarmTraining: when the daemon trains incrementally, the
// factor store rides the crash-safe state snapshot, and the first diagnosis
// after a kill-and-restart performs ZERO full retrains — every factor is
// served from the recovered sufficient statistics, and the diagnosis itself
// is unchanged from the pre-crash one.
func TestKillAndRestartWarmTraining(t *testing.T) {
	assertWarmRestart(t, newTestScenario(t))
}

// TestKillAndRestartWithGapsWarmTraining is the same drill over a database
// with gaps, as a daemon's is once an ingest skips a series: every series
// misses five slices inside the training window. The -state snapshot must
// keep them missing, or the recovered database trains on zeros, the
// restored factor store no longer matches it, and the diagnosis moves.
func TestKillAndRestartWithGapsWarmTraining(t *testing.T) {
	sc := newTestScenario(t)
	db := sc.Result.DB
	for _, id := range db.Entities() {
		for _, name := range db.MetricNames(id) {
			vals := slices.Clone(db.Series(id, name).Values())
			for _, at := range []int{60, 70, 80, 90, 100} {
				vals[at] = timeseries.Missing
			}
			if err := db.SetSeries(id, name, timeseries.FromValues(vals)); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertWarmRestart(t, sc)
}

// assertWarmRestart diagnoses sc's symptom on an incrementally training
// daemon, snapshots and kills it, recovers a second daemon from the
// snapshot, and requires the second diagnosis to refit nothing and to
// produce the same report, bit for bit.
func assertWarmRestart(t *testing.T, sc *microsim.Scenario) {
	t.Helper()
	state := filepath.Join(t.TempDir(), "state.json")

	// First life: anchor the factor store with one diagnosis, snapshot, then
	// crash (Close: no drain, no extra snapshot).
	srv1 := newTestServer(t, sc, func(c *Config) {
		c.SnapshotPath = state
	}, murphy.WithIncrementalTraining(murphy.IncrementalTraining{}))
	srv1.Start()
	w1 := post(t, srv1.Mux(), "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w1.Code != http.StatusOK {
		t.Fatalf("pre-kill diagnose = %d: %s", w1.Code, w1.Body.String())
	}
	var rec1 ReportRecord
	if err := json.Unmarshal(w1.Body.Bytes(), &rec1); err != nil {
		t.Fatal(err)
	}
	st1, ok := srv1.System().FactorStoreStats()
	if !ok || st1.Refits == 0 || st1.Factors == 0 {
		t.Fatalf("first life should anchor the store: %+v (ok=%v)", st1, ok)
	}
	if err := srv1.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	srv1.Close() // crash

	// Second life: recover database + factor store from disk. The new
	// daemon's own recorder isolates the post-recovery training counters.
	db2, restore, err := RecoverFromDisk(state)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if db2 == nil {
		t.Fatal("recovery found no snapshot")
	}
	mcfg := murphy.DefaultConfig()
	mcfg.Samples = 150
	mcfg.TrainWindow = 80
	srv2, err := New(db2, Config{QueueCap: 4, Workers: 1, ReportDir: t.TempDir()},
		murphy.WithConfig(mcfg), murphy.WithSeeds(sc.Symptom.Entity),
		murphy.WithIncrementalTraining(murphy.IncrementalTraining{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restore(srv2)
	srv2.Start()

	w2 := post(t, srv2.Mux(), "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-recovery diagnose = %d: %s", w2.Code, w2.Body.String())
	}
	var rec2 ReportRecord
	if err := json.Unmarshal(w2.Body.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}

	// The acceptance gate: zero full retrains after recovery. Every factor
	// came out of the snapshot as a pure reuse hit.
	st2, ok := srv2.System().FactorStoreStats()
	if !ok {
		t.Fatal("recovered daemon should expose factor store stats")
	}
	if st2.Refits != 0 {
		t.Fatalf("post-recovery diagnosis performed %d full retrains, want 0: %+v", st2.Refits, st2)
	}
	if st2.Hits == 0 || st2.Hits != st1.Refits {
		t.Fatalf("post-recovery hits = %d, want one per anchored factor (%d): %+v",
			st2.Hits, st1.Refits, st2)
	}
	if got := srv2.System().Stats().Counters["factors_trained"]; got != 0 {
		t.Fatalf("factors_trained = %d after recovery, want 0", got)
	}

	// And the warm diagnosis is the pre-crash diagnosis: same causes in the
	// same order with bit-identical scores.
	if len(rec2.Report.Causes) != len(rec1.Report.Causes) {
		t.Fatalf("post-recovery causes = %d, want %d", len(rec2.Report.Causes), len(rec1.Report.Causes))
	}
	for i := range rec1.Report.Causes {
		a, b := rec1.Report.Causes[i], rec2.Report.Causes[i]
		if a.Entity != b.Entity || a.Score != b.Score {
			t.Fatalf("cause %d diverged across restart: %+v vs %+v", i, a, b)
		}
	}
	rep1, err := json.Marshal(rec1.Report)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := json.Marshal(rec2.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep1) != string(rep2) {
		t.Fatalf("report diverged across restart:\n before %s\n  after %s", rep1, rep2)
	}
}

// TestSnapshotWithoutStoreOmitsFactorState: a daemon training full windows
// writes snapshots without a factor-store payload, and recovery of such a
// snapshot into an incremental daemon just cold-starts.
func TestSnapshotWithoutStoreOmitsFactorState(t *testing.T) {
	sc := newTestScenario(t)
	state := filepath.Join(t.TempDir(), "state.json")
	srv1 := newTestServer(t, sc, func(c *Config) {
		c.SnapshotPath = state
	})
	srv1.Start()
	if w := post(t, srv1.Mux(), "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}); w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d", w.Code)
	}
	if err := srv1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	snap, db2, err := LoadSnapshot(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.FactorStore) != 0 {
		t.Fatalf("full-window daemon snapshot should carry no factor store (%d bytes)", len(snap.FactorStore))
	}

	// Recovery into an incremental daemon cold-starts cleanly.
	mcfg := murphy.DefaultConfig()
	mcfg.Samples = 150
	mcfg.TrainWindow = 80
	srv2, err := New(db2, Config{QueueCap: 4, Workers: 1, ReportDir: t.TempDir()},
		murphy.WithConfig(mcfg), murphy.WithSeeds(sc.Symptom.Entity),
		murphy.WithIncrementalTraining(murphy.IncrementalTraining{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Recover(snap)
	srv2.Start()
	if w := post(t, srv2.Mux(), "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}); w.Code != http.StatusOK {
		t.Fatalf("cold-start diagnose = %d", w.Code)
	}
	if st, _ := srv2.System().FactorStoreStats(); st.Refits == 0 {
		t.Fatalf("cold start should anchor from scratch: %+v", st)
	}
}
