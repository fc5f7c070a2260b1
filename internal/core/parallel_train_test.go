package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// TestParallelTrainingBitIdentical trains the same database at worker counts
// 1/2/4/8 and requires bit-identical diagnoses: the worker pool is a latency
// knob, never a results knob.
func TestParallelTrainingBitIdentical(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}

	serial, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.NumFactors() != serial.NumFactors() {
			t.Fatalf("workers=%d: %d factors vs %d", workers, m.NumFactors(), serial.NumFactors())
		}
		diag, err := m.Diagnose(sym)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameDiagnosis(t, "parallel training", want, diag)
	}
}

// TestParallelTrainingCounter verifies the pool instrumentation: pooled
// training reports its fits on CtrTrainParallelFits, serial training reports
// none.
func TestParallelTrainingCounter(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		rec.Enable()
		if _, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Workers: workers, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		fits := rec.Counter(obs.CtrTrainParallelFits)
		trained := rec.Counter(obs.CtrFactorsTrained)
		if workers == 1 && fits != 0 {
			t.Errorf("serial training reported %d pooled fits", fits)
		}
		if workers > 1 && fits != trained {
			t.Errorf("pooled training: %d pooled fits, %d factors trained", fits, trained)
		}
	}
}

// cancelAfterTrainer wraps the ridge trainer so the shared context is
// cancelled after a fixed number of fits — a deterministic way to hit the
// pool mid-flight.
type cancelAfterTrainer struct {
	regress.Predictor
	fits   *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *cancelAfterTrainer) Fit(x [][]float64, y []float64) error {
	if c.fits.Add(1) == c.after {
		c.cancel()
	}
	return c.Predictor.Fit(x, y)
}

// TestParallelTrainingCancelMidPool cancels the context after a few fits and
// requires training to fail with the context error at every worker count —
// no hang, no partial model returned.
func TestParallelTrainingCancelMidPool(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var fits atomic.Int64
		trainer := regress.Trainer(func() regress.Predictor {
			return &cancelAfterTrainer{Predictor: regress.NewRidge(1), fits: &fits, after: 3, cancel: cancel}
		})
		m, err := TrainOpt(ctx, db, g, testConfig(), TrainOpts{Now: -1, Workers: workers, Trainer: trainer})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: training survived cancellation (model %v)", workers, m != nil)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestParallelTrainingMoreWorkersThanJobs pins the pool-size clamp: far more
// workers than (entity, metric) pairs must still train correctly.
func TestParallelTrainingMoreWorkersThanJobs(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	m, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFactors() == 0 {
		t.Fatal("no factors trained")
	}
}

// TestForEachIndexSerialFallback proves the workers<=1 path never spawns a
// goroutine: fn observes a stable goroutine count and runs in index order.
func TestForEachIndexSerialFallback(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	err := forEachIndex(context.Background(), 1, 5, func(i int) error {
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("serial fallback spawned goroutines: %d > %d", g, before)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order %v", order)
		}
	}
	// Errors surface immediately and stop the loop.
	calls := 0
	wantErr := errors.New("boom")
	err = forEachIndex(context.Background(), 0, 5, func(i int) error {
		calls++
		if i == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// TestForEachIndexLowestIndexError pins the deterministic error contract in
// pooled mode: with several failing items, the lowest index wins.
func TestForEachIndexLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := forEachIndex(context.Background(), 4, 8, func(i int) error {
		switch i {
		case 2:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errA)
	}
}
