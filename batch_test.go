package murphy

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"murphy/internal/telemetry"
)

// sameReport asserts two reports rank the same causes with bit-identical
// verdicts.
func sameReport(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if len(want.Causes) != len(got.Causes) {
		t.Fatalf("%s: %d causes vs %d", label, len(got.Causes), len(want.Causes))
	}
	for i := range want.Causes {
		w, g := want.Causes[i], got.Causes[i]
		if w.Entity != g.Entity ||
			math.Float64bits(w.Score) != math.Float64bits(g.Score) ||
			math.Float64bits(w.PValue) != math.Float64bits(g.PValue) ||
			math.Float64bits(w.Effect) != math.Float64bits(g.Effect) {
			t.Fatalf("%s: cause %d differs: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestDiagnoseBatchMatchesSequential verifies the batch facade returns exactly
// what per-symptom DiagnoseContext calls would, for every item.
func TestDiagnoseBatchMatchesSequential(t *testing.T) {
	symptoms := []telemetry.Symptom{
		{Entity: "backend", Metric: telemetry.MetricCPU, High: true},
		{Entity: "web", Metric: telemetry.MetricCPU, High: true},
	}
	seq := testSystem(t)
	var want []*Report
	for _, sym := range symptoms {
		r, err := seq.DiagnoseContext(context.Background(), sym)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	batch := testSystem(t)
	items, err := batch.DiagnoseBatch(context.Background(), symptoms)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(symptoms) {
		t.Fatalf("%d items for %d symptoms", len(items), len(symptoms))
	}
	for i, item := range items {
		if item.Symptom != symptoms[i] {
			t.Fatalf("item %d echoes %+v", i, item.Symptom)
		}
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		sameReport(t, "batch item", want[i], item.Report)
	}
}

// TestDiagnoseBatchPartialErrors is the error-isolation table: every kind of
// per-item failure, at every position in the batch, must land in that item's
// Err while the sibling symptoms still produce reports bit-identical to what
// sequential DiagnoseContext calls return.
func TestDiagnoseBatchPartialErrors(t *testing.T) {
	good := []telemetry.Symptom{
		{Entity: "backend", Metric: telemetry.MetricCPU, High: true},
		{Entity: "web", Metric: telemetry.MetricCPU, High: true},
	}
	seq := testSystem(t)
	want := make([]*Report, len(good))
	for i, sym := range good {
		r, err := seq.DiagnoseContext(context.Background(), sym)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	bad := []struct {
		name    string
		symptom telemetry.Symptom
		errSub  string
	}{
		{
			name:    "unknown entity",
			symptom: telemetry.Symptom{Entity: "ghost", Metric: telemetry.MetricCPU, High: true},
			errSub:  "not in relationship graph",
		},
		{
			name:    "known entity without the symptom metric",
			symptom: telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricPktDrops, High: true},
			errSub:  "no telemetry for symptom metric",
		},
	}
	for _, tc := range bad {
		for pos := 0; pos <= len(good); pos++ {
			t.Run(fmt.Sprintf("%s at %d", tc.name, pos), func(t *testing.T) {
				symptoms := append(append([]telemetry.Symptom{}, good[:pos]...), tc.symptom)
				symptoms = append(symptoms, good[pos:]...)
				items, err := testSystem(t).DiagnoseBatch(context.Background(), symptoms)
				if err != nil {
					t.Fatalf("batch aborted instead of isolating the bad item: %v", err)
				}
				if len(items) != len(symptoms) {
					t.Fatalf("%d items for %d symptoms", len(items), len(symptoms))
				}
				gi := 0
				for i, item := range items {
					if item.Symptom != symptoms[i] {
						t.Fatalf("item %d echoes %+v, want %+v", i, item.Symptom, symptoms[i])
					}
					if i == pos {
						if item.Err == nil || item.Report != nil {
							t.Fatalf("bad item: err=%v report=%v", item.Err, item.Report)
						}
						if !strings.Contains(item.Err.Error(), tc.errSub) {
							t.Fatalf("bad item error %q does not mention %q", item.Err, tc.errSub)
						}
						continue
					}
					if item.Err != nil || item.Report == nil {
						t.Fatalf("sibling %d sunk by the bad item: %v", i, item.Err)
					}
					sameReport(t, "sibling report", want[gi], item.Report)
					gi++
				}
			})
		}
	}
}

// TestDiagnoseBatchEmpty pins the no-op contract.
func TestDiagnoseBatchEmpty(t *testing.T) {
	sys := testSystem(t)
	items, err := sys.DiagnoseBatch(context.Background(), nil)
	if err != nil || items != nil {
		t.Fatalf("empty batch: items=%v err=%v", items, err)
	}
}

// TestDiagnoseBatchCancelled verifies a cancelled context surfaces per item
// once training is already paid for, and as a top-level error before.
func TestDiagnoseBatchCancelled(t *testing.T) {
	sys := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.DiagnoseBatch(ctx, []telemetry.Symptom{demoSymptom()}); err == nil {
		t.Fatal("cancelled context should fail the batch")
	}
}

// TestWithParallelTrainingMatchesSerial is the facade-level determinism check:
// a WithWorkers pool (training fits and candidate evaluations) must leave
// the verdicts bit-identical, for both the fixed-budget and the early-stop
// sampler.
func TestWithParallelTrainingMatchesSerial(t *testing.T) {
	for _, es := range []bool{false, true} {
		sampler := WithSampler(SamplerConfig{EarlyStop: es})
		want, err := testSystem(t, sampler).Diagnose(demoSymptom())
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Causes) == 0 {
			t.Fatalf("earlyStop=%v: no causes certified", es)
		}
		for _, workers := range []int{2, 4} {
			got, err := testSystem(t, WithWorkers(workers), sampler).Diagnose(demoSymptom())
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fmt.Sprintf("earlyStop=%v workers=%d", es, workers), want, got)
		}
	}
}

// TestWithWorkersZeroClamped verifies WithWorkers(0) degrades to the serial
// path instead of panicking or spawning an unbounded pool.
func TestWithWorkersZeroClamped(t *testing.T) {
	want, err := testSystem(t).Diagnose(demoSymptom())
	if err != nil {
		t.Fatal(err)
	}
	got, err := testSystem(t, WithWorkers(0)).Diagnose(demoSymptom())
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "workers=0", want, got)
}
