package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"murphy/internal/telemetry"
)

// TestChainsBitIdenticalAcrossWorkers: a model trained on a worker pool,
// whose candidate evaluations (each sampling its Gibbs chains from its own
// stream) share that pool, must certify bit-identical causes to the
// one-worker train and diagnosis, for both the fixed-budget and the
// early-stop sampler, with GOMAXPROCS at the pool width.
func TestChainsBitIdenticalAcrossWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	diagnose := func(cfg Config, workers int) *Diagnosis {
		t.Helper()
		runtime.GOMAXPROCS(workers)
		m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, es := range []bool{false, true} {
		cfg := testConfig()
		cfg.Sampler.EarlyStop = es
		serial := diagnose(cfg, 1)
		if len(serial.Causes) == 0 {
			t.Fatalf("earlyStop=%v: no causes certified", es)
		}
		for _, workers := range []int{2, 4} {
			sameDiagnosis(t, fmt.Sprintf("earlyStop=%v workers=%d", es, workers), serial, diagnose(cfg, workers))
		}
	}
}

// TestEarlyStopDeterministicAndSound checks the early-stop path on the chain
// fixture: repeated runs are bit-identical (its RNG streams are seeded
// deterministically), the true cause chain stays certified with the same
// top-1, and SamplesUsed reflects actual truncation.
func TestEarlyStopDeterministicAndSound(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	cfg.Samples = 2000
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}

	plain, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}

	fastCfg := cfg
	fastCfg.Sampler.EarlyStop = true
	pm, err := TrainOpt(context.Background(), db, g, fastCfg, TrainOpts{Now: -1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pm.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(db, g, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	sameDiagnosis(t, "early-stop determinism (parallel vs sequential)", first, again)

	if len(want.Causes) == 0 || len(first.Causes) == 0 {
		t.Fatal("both paths should certify causes on the chain incident")
	}
	if want.Causes[0].Entity != first.Causes[0].Entity {
		t.Fatalf("top-1 differs: %q vs %q", want.Causes[0].Entity, first.Causes[0].Entity)
	}
	budget := 2 * fastCfg.Samples
	truncated := false
	for _, c := range first.Causes {
		if c.SamplesUsed <= 0 || c.SamplesUsed > budget {
			t.Errorf("cause %q: SamplesUsed %d outside (0, %d]", c.Entity, c.SamplesUsed, budget)
		}
		if c.SamplesUsed < budget {
			truncated = true
		}
	}
	if !truncated {
		t.Error("early stop never truncated the budget on a clear-cut incident")
	}
	for _, c := range want.Causes {
		if c.SamplesUsed != budget {
			t.Errorf("full path: cause %q used %d samples, want %d", c.Entity, c.SamplesUsed, budget)
		}
	}
}
