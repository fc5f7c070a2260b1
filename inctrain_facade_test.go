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

// TestWithIncrementalTrainingOwnStore: every System builds its own store.
func TestWithIncrementalTrainingOwnStore(t *testing.T) {
	sys := testSystem(t, WithIncrementalTraining(IncrementalTraining{}))
	sys2 := testSystem(t, WithIncrementalTraining(IncrementalTraining{}))
	if sys.FactorStore() == nil || sys.FactorStore() == sys2.FactorStore() {
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
