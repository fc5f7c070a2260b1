package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// TestDiagnosePanickingCandidate is the regression test for the worker-pool
// deadlock: a panicking candidate evaluation used to kill the worker
// goroutine before wg.Done, hanging every pooled diagnosis. The panic must
// instead become a recorded skip while the rest of the diagnosis completes.
func TestDiagnosePanickingCandidate(t *testing.T) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 4}} {
		t.Run(mode.name, func(t *testing.T) {
			_, m := trainChainWorkers(t, mode.workers)
			m.SetEvalHook(func(a telemetry.EntityID) {
				if a == "decoy" {
					panic("poisoned evaluator")
				}
			})
			sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}

			done := make(chan struct{})
			var diag *Diagnosis
			var err error
			go func() {
				defer close(done)
				diag, err = m.Diagnose(sym)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("diagnosis deadlocked on a panicking candidate")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !diag.Partial {
				t.Fatal("a panicking candidate should mark the diagnosis partial")
			}
			var skip *SkippedCandidate
			for i := range diag.Skipped {
				if diag.Skipped[i].Entity == "decoy" {
					skip = &diag.Skipped[i]
				}
			}
			if skip == nil {
				t.Fatalf("decoy should be recorded as skipped: %+v", diag.Skipped)
			}
			if !strings.Contains(skip.Reason, "panic") {
				t.Fatalf("skip reason = %q, want a panic marker", skip.Reason)
			}
			// The true cause still comes out of the surviving candidates.
			found := false
			for _, c := range diag.Causes {
				if c.Entity == "client" {
					found = true
				}
				if c.Degraded {
					t.Fatal("certified cause list must not contain degraded entries")
				}
			}
			if !found {
				t.Fatalf("client should survive the poisoned decoy: %v", diag.Ranked())
			}
			// The decoy falls back to the degraded ranking, flagged.
			if len(diag.Degraded) != 1 || diag.Degraded[0].Entity != "decoy" || !diag.Degraded[0].Degraded {
				t.Fatalf("degraded = %+v", diag.Degraded)
			}
		})
	}
}

func TestDiagnoseContextCancelled(t *testing.T) {
	_, m := trainChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	diag, err := m.DiagnoseContext(ctx, telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled diagnosis did not return promptly")
	}
	if diag == nil || !diag.Partial {
		t.Fatal("cancellation should still hand back the partial diagnosis")
	}
	// Parallel path: same contract.
	_, pm := trainChainWorkers(t, 3)
	if _, err := pm.DiagnoseContext(ctx, telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want wrapped context.Canceled", err)
	}
}

// TestDiagnoseContextDeadlinePartial runs an expiring deadline through the
// inline loop and the pool: both must degrade to a partial diagnosis whose
// every skipped candidate, reached or not, says "deadline exceeded".
func TestDiagnoseContextDeadlinePartial(t *testing.T) {
	db := chainDB(t, 220, 5, 33)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy sampling so full inference takes visibly longer than the
	// deadline; the ctx checks inside the Gibbs loop must cut it short.
	// (At 8 rounds a 4-worker diagnosis finished in ~34 ms on a 2-vCPU
	// x86-64 container, too close to the 30 ms deadline; 32 rounds take
	// ~110 ms.)
	cfg := testConfig()
	cfg.Samples = 60000
	cfg.GibbsRounds = 32
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			deadline := 30 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			diag, err := m.DiagnoseContext(ctx, sym)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("an expired deadline must degrade, not error: %v", err)
			}
			if diag == nil {
				t.Fatal("nil diagnosis")
			}
			if !diag.Partial || len(diag.Skipped) == 0 {
				t.Fatalf("deadline should leave a partial diagnosis: partial=%v skipped=%d evaluated causes=%d",
					diag.Partial, len(diag.Skipped), len(diag.Causes))
			}
			for _, s := range diag.Skipped {
				if s.Reason != "deadline exceeded" {
					t.Fatalf("skip reason = %q", s.Reason)
				}
			}
			// Generous CI margin, but far below the multi-second full
			// inference: the acceptance target is ~1.5x the deadline.
			if elapsed > time.Second {
				t.Fatalf("deadline %v overshot to %v", deadline, elapsed)
			}
			// Degraded fallback is ranked by anomaly score (descending).
			for i := 1; i < len(diag.Degraded); i++ {
				if diag.Degraded[i-1].Score < diag.Degraded[i].Score {
					t.Fatal("degraded list must be ranked by anomaly score")
				}
			}
		})
	}
}

// progressLog records the StageTest progress events of one diagnosis.
type progressLog struct{ done []int }

func (*progressLog) StageStart(obs.Stage)                             {}
func (*progressLog) StageEnd(obs.Stage, time.Duration, time.Duration) {}
func (p *progressLog) Progress(st obs.Stage, done, _ int, _ string) {
	if st == obs.StageTest {
		p.done = append(p.done, done)
	}
}

// TestDiagnoseProgressCountsFailedCandidates: a candidate whose evaluation
// panics still finishes, so it emits its progress event like any other and
// a progress bar reaches its total, inline and pooled.
func TestDiagnoseProgressCountsFailedCandidates(t *testing.T) {
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	for _, workers := range []int{1, 4} {
		_, m := trainChainWorkers(t, workers)
		m.SetEvalHook(func(a telemetry.EntityID) {
			if a == "decoy" {
				panic("poisoned evaluator")
			}
		})
		log := &progressLog{}
		rec := obs.New()
		rec.Enable()
		rec.Attach(log)
		m.SetRecorder(rec)
		diag, err := m.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		if len(diag.Skipped) != 1 {
			t.Fatalf("workers=%d: skipped = %+v, want the decoy alone", workers, diag.Skipped)
		}
		got := append([]int(nil), log.done...)
		sort.Ints(got)
		if len(got) != len(diag.Candidates) {
			t.Fatalf("workers=%d: %d progress events %v for %d candidates", workers, len(got), log.done, len(diag.Candidates))
		}
		for i, d := range got {
			if d != i+1 {
				t.Fatalf("workers=%d: progress done values %v, want 1..%d once each", workers, log.done, len(diag.Candidates))
			}
		}
	}
}

func TestTrainContextCancelled(t *testing.T) {
	db := chainDB(t, 220, 5, 34)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainOpt(ctx, db, g, testConfig(), TrainOpts{Now: -1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// brokenSource fails every read of one entity and passes the rest through.
type brokenSource struct {
	db     *telemetry.DB
	broken telemetry.EntityID
}

func (b *brokenSource) Len() int                                   { return b.db.Len() }
func (b *brokenSource) Entities() []telemetry.EntityID             { return b.db.Entities() }
func (b *brokenSource) MetricNames(id telemetry.EntityID) []string { return b.db.MetricNames(id) }
func (b *brokenSource) ReadRawWindow(ctx context.Context, id telemetry.EntityID, metric string, lo, hi int) ([]float64, error) {
	if id == b.broken {
		return nil, fmt.Errorf("collector shard down for %s", id)
	}
	return b.db.ReadRawWindow(ctx, id, metric, lo, hi)
}

func TestTrainSourceDegradesFailedReads(t *testing.T) {
	db := chainDB(t, 220, 5, 35)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	src := &brokenSource{db: db, broken: "decoy"}
	m, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Src: src})
	if err != nil {
		t.Fatalf("unreadable series must degrade, not fail training: %v", err)
	}
	fails := m.ReadFailures()
	if len(fails) == 0 {
		t.Fatal("read failures should be recorded")
	}
	for _, f := range fails {
		if f.Entity != "decoy" {
			t.Fatalf("unexpected failure %+v", f)
		}
	}
	// The diagnosis still runs and still finds the true cause: the decoy's
	// missing history makes it "novel", not fatal.
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range diag.Causes {
		if c.Entity == "client" {
			found = true
		}
	}
	if !found {
		t.Fatalf("client should survive a dead collector shard: %v", diag.Ranked())
	}
}

func TestTrainSourceMatchesDirectTraining(t *testing.T) {
	db := chainDB(t, 220, 5, 36)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Train(db, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaSrc, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Src: db})
	if err != nil {
		t.Fatal(err)
	}
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	a, err := direct.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaSrc.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Causes) != len(b.Causes) {
		t.Fatalf("cause counts differ: %d vs %d", len(a.Causes), len(b.Causes))
	}
	for i := range a.Causes {
		if a.Causes[i].Entity != b.Causes[i].Entity || a.Causes[i].PValue != b.Causes[i].PValue {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a.Causes[i], b.Causes[i])
		}
	}
}

func TestParallelPartialMatchesSequentialCertified(t *testing.T) {
	// With a panicking candidate, the certified causes of the parallel and
	// sequential paths must still agree (determinism under degradation).
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	run := func(parallel bool) *Diagnosis {
		workers := 1
		if parallel {
			workers = 4
		}
		_, m := trainChainWorkers(t, workers)
		m.SetEvalHook(func(a telemetry.EntityID) {
			if a == "front" {
				panic("poisoned")
			}
		})
		d, err := m.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq, par := run(false), run(true)
	if len(seq.Causes) != len(par.Causes) {
		t.Fatalf("certified counts differ: %d vs %d", len(seq.Causes), len(par.Causes))
	}
	for i := range seq.Causes {
		if seq.Causes[i].Entity != par.Causes[i].Entity {
			t.Fatalf("rank %d differs: %v vs %v", i, seq.Ranked(), par.Ranked())
		}
	}
	if len(seq.Skipped) != 1 || len(par.Skipped) != 1 {
		t.Fatalf("skips: seq=%v par=%v", seq.Skipped, par.Skipped)
	}
}
