package core

import (
	"context"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

func TestDiagnoseParallelMatchesSequential(t *testing.T) {
	_, m := trainChain(t)
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	seq, err := m.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		_, pm := trainChainWorkers(t, workers)
		par, err := pm.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Causes) != len(seq.Causes) {
			t.Fatalf("workers=%d: cause counts differ: %d vs %d", workers, len(par.Causes), len(seq.Causes))
		}
		for i := range par.Causes {
			if par.Causes[i].Entity != seq.Causes[i].Entity {
				t.Fatalf("workers=%d: ranking differs at %d: %v vs %v",
					workers, i, par.Ranked(), seq.Ranked())
			}
			if par.Causes[i].PValue != seq.Causes[i].PValue {
				t.Fatalf("workers=%d: p-values differ (non-deterministic sampling)", workers)
			}
		}
	}
}

func TestDiagnoseParallelErrors(t *testing.T) {
	_, m := trainChainWorkers(t, 2)
	if _, err := m.Diagnose(telemetry.Symptom{Entity: "ghost", Metric: "x"}); err == nil {
		t.Fatal("unknown symptom should error")
	}
}

func TestRebind(t *testing.T) {
	db := chainDB(t, 300, 5, 30)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	// Train strictly before the incident.
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: 250})
	if err != nil {
		t.Fatal(err)
	}
	preScore := m.AnomalyScore("client")
	rb, err := m.Rebind(299)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Now() != 299 {
		t.Fatalf("rebound Now = %d", rb.Now())
	}
	// The incident slice must look far more anomalous than the quiet one.
	if rb.AnomalyScore("client") <= preScore+1 {
		t.Fatalf("rebind should expose the incident: %v -> %v", preScore, rb.AnomalyScore("client"))
	}
	// Original model untouched.
	if m.Now() != 250 {
		t.Fatal("Rebind must not mutate the original")
	}
	if _, err := m.Rebind(-1); err == nil {
		t.Fatal("negative rebind should error")
	}
	if _, err := m.Rebind(9999); err == nil {
		t.Fatal("out-of-range rebind should error")
	}
}

func TestDiagnoseMaxCandidates(t *testing.T) {
	db := chainDB(t, 220, 5, 31)
	g, _ := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	cfg := testConfig()
	cfg.MaxCandidates = 1
	m, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	// Pruned space capped at 1 plus the symptom self-candidate.
	if len(diag.Candidates) > 2 {
		t.Fatalf("candidates = %v, want at most 2", diag.Candidates)
	}
}

func TestDiagnoseTimeout(t *testing.T) {
	db := chainDB(t, 220, 5, 32)
	g, _ := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	cfg := testConfig()
	cfg.Timeout = 1 // nanosecond: expires immediately
	m, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) != 0 {
		t.Fatalf("expired deadline should stop evaluation, got %v", diag.Ranked())
	}
	if !diag.Partial || len(diag.Skipped) != len(diag.Candidates) {
		t.Fatalf("expired deadline should flag every candidate skipped: partial=%v skipped=%d/%d",
			diag.Partial, len(diag.Skipped), len(diag.Candidates))
	}
	if len(diag.Degraded) == 0 {
		t.Fatal("skipped candidates should fall back to the degraded ranking")
	}
}

func TestModelAccessors(t *testing.T) {
	_, m := trainChain(t)
	if m.CurrentValue("back", telemetry.MetricCPU) <= 0 {
		t.Fatal("CurrentValue should reflect the incident")
	}
}
