package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// The factor store is the only training-reuse path, and so the one factor
// cache: a second train at the same slice is served from the stored factors.
// These tests pin that a store hit is invisible in the diagnosis, bit for
// bit, under pooled training, concurrent sharing, and the degraded inference
// paths.

// plainDiagnosis trains without a store and diagnoses the chain incident.
func plainDiagnosis(t *testing.T, db *telemetry.DB, cfg Config, sym telemetry.Symptom) *Diagnosis {
	t.Helper()
	m, err := Train(db, chainGraph(t, db), cfg)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	return diag
}

// assertSecondTrainHits trains twice at the same slice through one store
// with the given worker count: the first pass anchors every factor, the
// second is served entirely from the store, and both diagnoses must be
// bit-identical to a storeless serial train.
func assertSecondTrainHits(t *testing.T, workers int) {
	t.Helper()
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := plainDiagnosis(t, db, cfg, sym)

	store := NewFactorStore()
	for round := 0; round < 2; round++ {
		m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		diag, err := m.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		sameDiagnosis(t, "store round", want, diag)
	}
	if st := store.Stats(); st.Refits == 0 || st.Hits != st.Refits {
		t.Errorf("workers=%d: second train should hit every factor: %+v", workers, st)
	}
}

// TestFactorCacheIdenticalResults: a serial retrain at the same slice is
// served from the store and diagnoses bit-identically.
func TestFactorCacheIdenticalResults(t *testing.T) {
	assertSecondTrainHits(t, 1)
}

// TestParallelTrainingWithFactorCache: the same two-pass check with pooled
// training.
func TestParallelTrainingWithFactorCache(t *testing.T) {
	assertSecondTrainHits(t, 4)
}

// TestFactorCacheSharedConcurrent hammers one store from many goroutines,
// each training its own model at the same slice and diagnosing in parallel.
// Meant to run under -race; every diagnosis must equal the storeless
// baseline, and all but the anchoring train are served from the store.
func TestFactorCacheSharedConcurrent(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := plainDiagnosis(t, db, cfg, sym)

	store := NewFactorStore()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	diags := make([]*Diagnosis, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Workers: 4})
			if err != nil {
				errs <- err
				return
			}
			diag, err := m.Diagnose(sym)
			if err != nil {
				errs <- err
				return
			}
			diags[slot] = diag
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, diag := range diags {
		sameDiagnosis(t, "concurrent trainer", want, diag)
	}
	if st := store.Stats(); st.Hits != (goroutines-1)*st.Refits {
		t.Errorf("every train after the anchor should be a pure hit: %+v", st)
	}
}

// TestFactorCacheDegradedPaths exercises the store together with the
// resilience machinery: a panicking candidate evaluator (skip path) and an
// expiring deadline (partial path) must not corrupt stored factors — a clean
// re-diagnose from the store afterwards still matches a plain train exactly.
func TestFactorCacheDegradedPaths(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := plainDiagnosis(t, db, cfg, sym)
	store := NewFactorStore()

	// Skip path: one candidate's evaluation panics mid-diagnosis.
	pooled := TrainOpts{Now: -1, Store: store, Workers: 4}
	m, err := TrainOpt(context.Background(), db, g, cfg, pooled)
	if err != nil {
		t.Fatal(err)
	}
	m.SetEvalHook(func(a telemetry.EntityID) {
		if a == "decoy" {
			panic("poisoned evaluator")
		}
	})
	diag, err := m.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Partial {
		t.Fatal("panicking candidate should mark the diagnosis partial")
	}

	// Partial path: the deadline expires during inference.
	m2, err := TrainOpt(context.Background(), db, g, cfg, pooled)
	if err != nil {
		t.Fatal(err)
	}
	m2.SetEvalHook(func(telemetry.EntityID) { time.Sleep(5 * time.Millisecond) })
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Millisecond)
	defer cancel()
	if _, err := m2.DiagnoseContext(ctx, sym); err != nil {
		t.Fatalf("an expiring deadline should degrade, not error: %v", err)
	}

	// The store must still serve pristine factors.
	m3, err := TrainOpt(context.Background(), db, g, cfg, pooled)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m3.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	sameDiagnosis(t, "after degraded runs", want, clean)
	if st := store.Stats(); st.Hits != 2*st.Refits {
		t.Errorf("the two trains after the anchor should be pure hits: %+v", st)
	}
}

// TestFactorCacheBypassed checks TrainOpt's one soundness guard: a custom
// trainer or an interposed source must leave the store untouched (their
// factors are not reusable, and a fallible read path must not poison shared
// state).
func TestFactorCacheBypassed(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()

	if _, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Trainer: regress.MLPTrainer(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Src: db}); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st != NewFactorStore().Stats() {
		t.Fatalf("a custom trainer or an interposed source touched the store: %+v", st)
	}
}
