package chaos

import (
	"context"
	"testing"
	"time"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/resilience"
	"murphy/internal/telemetry"
)

// contentionScenario builds one hotel-reservation contention incident and
// the accept set for its diagnosis.
func contentionScenario(t *testing.T) (*microsim.Scenario, map[telemetry.EntityID]bool) {
	t.Helper()
	sc, err := microsim.Contention(microsim.ContentionOptions{
		Topo: "hotel", Steps: 300, PriorIncidents: 4,
		Kind: microsim.FaultCPU, Intensity: 0.55, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	accept := map[telemetry.EntityID]bool{sc.TruthEntity: true}
	for _, id := range sc.Acceptable {
		accept[id] = true
	}
	return sc, accept
}

func murphyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = 400
	cfg.TrainWindow = 280
	return cfg
}

// TestDiagnosisSurvivesTransientFaults is the end-to-end robustness drill:
// 10% of telemetry reads fail transiently and a few window elements are
// corrupted to NaN, the retry layer absorbs the faults, and the top-1 root
// cause must match the clean run's ground truth.
func TestDiagnosisSurvivesTransientFaults(t *testing.T) {
	sc, accept := contentionScenario(t)
	db := sc.Result.DB
	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	inj := Wrap(db, Config{Seed: 17, FaultRate: 0.10, CorruptRate: 0.002})
	src := resilience.NewSource(inj, resilience.Policy{
		MaxAttempts: 5,
		Seed:        1,
	}.WithSleep(func(context.Context, time.Duration) error { return nil }), nil)

	m, err := core.TrainOpt(context.Background(), db, g, murphyConfig(), core.TrainOpts{Now: -1, Src: src})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(sc.Symptom)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) == 0 {
		t.Fatal("no causes under chaos")
	}
	if !accept[diag.Causes[0].Entity] {
		t.Fatalf("top-1 = %s, want ground truth %s (accept %v); ranking %v",
			diag.Causes[0].Entity, sc.TruthEntity, accept, diag.Ranked())
	}
	if st := inj.Stats(); st.Faults == 0 {
		t.Fatalf("chaos injected nothing: %+v", st)
	}
}

// TestParallelDiagnosisUnderChaosAndPanic is the acceptance drill: 10%
// transient read faults plus one panicking candidate evaluator, and a
// diagnosis on a 4-worker pool must still complete with the ground-truth
// root cause in the top 3.
func TestParallelDiagnosisUnderChaosAndPanic(t *testing.T) {
	sc, accept := contentionScenario(t)
	db := sc.Result.DB
	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	inj := Wrap(db, Config{Seed: 23, FaultRate: 0.10})
	src := resilience.NewSource(inj, resilience.Policy{
		MaxAttempts: 5,
		Seed:        2,
	}.WithSleep(func(context.Context, time.Duration) error { return nil }), nil)
	m, err := core.TrainOpt(context.Background(), db, g, murphyConfig(), core.TrainOpts{Now: -1, Src: src, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Poison one non-truth candidate's evaluation.
	var victim telemetry.EntityID
	for _, cand := range m.Candidates(sc.Symptom.Entity) {
		if !accept[cand] {
			victim = cand
			break
		}
	}
	if victim == "" {
		t.Skip("no non-truth candidate to poison")
	}
	m.SetEvalHook(func(a telemetry.EntityID) {
		if a == victim {
			panic("chaos: poisoned candidate")
		}
	})
	diag, err := m.DiagnoseContext(context.Background(), sc.Symptom)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Partial || len(diag.Skipped) == 0 {
		t.Fatal("the poisoned candidate should be flagged as skipped")
	}
	top3 := false
	for i, c := range diag.Causes {
		if i >= 3 {
			break
		}
		if accept[c.Entity] {
			top3 = true
		}
	}
	if !top3 {
		t.Fatalf("ground truth %s not in top-3 under chaos+panic: %v", sc.TruthEntity, diag.Ranked())
	}
}
