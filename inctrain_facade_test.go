package murphy

import (
	"testing"

	"murphy/internal/chaos"
	"murphy/internal/telemetry"
)

func sameCauses(t *testing.T, label string, want, got *Report, exact bool) {
	t.Helper()
	if len(want.Causes) != len(got.Causes) {
		t.Fatalf("%s: %d causes vs %d", label, len(want.Causes), len(got.Causes))
	}
	for i := range want.Causes {
		a, b := want.Causes[i], got.Causes[i]
		if a.Entity != b.Entity {
			t.Fatalf("%s: cause %d: %q vs %q", label, i, a.Entity, b.Entity)
		}
		if exact && (a.Score != b.Score || a.PValue != b.PValue && !(a.PValue != a.PValue && b.PValue != b.PValue)) {
			t.Fatalf("%s: cause %d not bit-identical: %+v vs %+v", label, i, a, b)
		}
	}
}

// TestWithIncrementalTrainingEndToEnd: a session with incremental training
// diagnoses identically to a plain session — bit-identical on the anchoring
// call, same certified causes after the window slides — while serving
// factors from slid statistics instead of retraining.
func TestWithIncrementalTrainingEndToEnd(t *testing.T) {
	db := demoDB(t)
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.TrainWindow = 220
	plain, err := New(db, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(db, WithConfig(cfg), WithIncrementalTraining(IncrementalTraining{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.FactorStoreStats(); ok {
		t.Fatal("plain session should report no factor store")
	}
	sym := telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true}

	want, err := plain.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	sameCauses(t, "anchor", want, got, true)

	// Slide the window: new observations arrive, both sessions re-diagnose.
	start := db.Len()
	for tt := start; tt < start+5; tt++ {
		for _, ob := range []struct {
			id telemetry.EntityID
			m  string
			v  float64
		}{
			{"crawler", telemetry.MetricNetTx, 3400},
			{"flow", telemetry.MetricSessions, 341},
			{"flow", telemetry.MetricThroughput, 510000},
			{"web", telemetry.MetricCPU, 0.44},
			{"backend", telemetry.MetricCPU, 0.63},
		} {
			if err := db.Observe(ob.id, ob.m, tt, ob.v); err != nil {
				t.Fatal(err)
			}
		}
		want, err = plain.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		got, err = inc.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		sameCauses(t, "slide", want, got, false)
	}
	st, ok := inc.FactorStoreStats()
	if !ok {
		t.Fatal("FactorStoreStats should be available")
	}
	if st.Hits == 0 || st.Slides == 0 {
		t.Fatalf("sliding session should hit the incremental path: %+v", st)
	}
	if inc.FactorStore() == nil {
		t.Fatal("FactorStore handle should be exposed")
	}
}

// TestWithIncrementalTrainingPrecedence: zero fields keep the default
// policy, non-zero fields override it, and every System gets its own store.
func TestWithIncrementalTrainingPrecedence(t *testing.T) {
	// Zero-value bundle: own store with the default policy.
	sys := testSystem(t, WithIncrementalTraining(IncrementalTraining{}))
	st, ok := sys.FactorStoreStats()
	if !ok || st.DriftThreshold != 4.0 || st.RefreshEvery != 512 {
		t.Fatalf("zero bundle should inherit defaults: %+v (ok=%v)", st, ok)
	}

	// Non-zero fields override.
	sys2 := testSystem(t, WithIncrementalTraining(IncrementalTraining{
		DriftThreshold: 2.5, RefreshEvery: 64,
	}))
	if st, _ := sys2.FactorStoreStats(); st.DriftThreshold != 2.5 || st.RefreshEvery != 64 {
		t.Fatalf("non-zero fields should override: %+v", st)
	}

	// A partial bundle overrides only what it sets.
	sys3 := testSystem(t, WithIncrementalTraining(IncrementalTraining{RefreshEvery: 64}))
	if st, _ := sys3.FactorStoreStats(); st.DriftThreshold != 4.0 || st.RefreshEvery != 64 {
		t.Fatalf("zero fields should keep the default policy: %+v", st)
	}
	if sys.FactorStore() == sys2.FactorStore() || sys2.FactorStore() == sys3.FactorStore() {
		t.Fatal("every System should own its store")
	}
}

// TestIncrementalTrainingBypassedWithSource: an interposed (fallible) read
// path bypasses the store.
func TestIncrementalTrainingBypassedWithSource(t *testing.T) {
	db := demoDB(t)
	cfg := DefaultConfig()
	cfg.Samples = 200
	cfg.TrainWindow = 220
	sys, err := New(db, WithConfig(cfg),
		WithIncrementalTraining(IncrementalTraining{}),
		WithResilience(Resilience{Source: chaos.Wrap(db, chaos.Config{})}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Diagnose(telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.FactorStoreStats(); st.Hits != 0 || st.Refits != 0 {
		t.Fatalf("interposed source must bypass the store: %+v", st)
	}
}
