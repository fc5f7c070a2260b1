package murphy

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seqObserver records the event stream for golden-style assertions. Observer
// callbacks are serialized by the recorder, so no locking is needed here —
// which is itself part of the contract under test with -race.
type seqObserver struct {
	events []string
}

func (o *seqObserver) StageStart(st Stage) {
	o.events = append(o.events, "start "+st.String())
}

func (o *seqObserver) StageEnd(st Stage, wall, cpu time.Duration) {
	if wall < 0 || cpu < 0 {
		o.events = append(o.events, "negative timing "+st.String())
		return
	}
	o.events = append(o.events, "end "+st.String())
}

func (o *seqObserver) Progress(st Stage, done, total int, entity string) {
	if done == total {
		o.events = append(o.events, fmt.Sprintf("progress %s %d/%d", st, done, total))
	}
}

func TestObserverStageSequence(t *testing.T) {
	obs := &seqObserver{}
	sys := testSystem(t, WithObserver(obs))
	if _, err := sys.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	// Stage spans arrive in pipeline order, each start paired with its end.
	want := []string{
		"start train", "end train",
		"start prune", "end prune",
		"start test",
	}
	var got []string
	for _, e := range obs.events {
		if strings.HasPrefix(e, "start ") || strings.HasPrefix(e, "end ") {
			got = append(got, e)
		}
	}
	if len(got) < 10 {
		t.Fatalf("expected all five stage spans, got %v", obs.events)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("event[%d] = %q, want %q (full: %v)", i, got[i], w, got)
		}
	}
	tail := got[len(got)-6:]
	wantTail := []string{"end test", "start rank", "end rank", "start explain", "end explain"}
	if fmt.Sprint(tail[1:]) != fmt.Sprint(wantTail) {
		t.Fatalf("trailing events = %v, want %v", tail[1:], wantTail)
	}
	// The test stage reported completion over all candidates.
	var progressed bool
	for _, e := range obs.events {
		if strings.HasPrefix(e, "progress test ") {
			progressed = true
		}
	}
	if !progressed {
		t.Fatalf("no final test-stage progress event in %v", obs.events)
	}
}

func TestStatsSnapshotCounters(t *testing.T) {
	sys := testSystem(t, WithStats())
	if _, err := sys.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if !st.Enabled {
		t.Fatal("stats should be enabled via WithStats")
	}
	for _, ctr := range []string{"factors_trained", "gibbs_samples", "candidates_tested"} {
		if st.Counters[ctr] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (all: %v)", ctr, st.Counters[ctr], st.Counters)
		}
	}
	stages := map[string]bool{}
	for _, s := range st.Stages {
		if s.Calls > 0 {
			stages[s.Stage] = true
		}
	}
	for _, s := range []string{"train", "prune", "test", "rank", "explain"} {
		if !stages[s] {
			t.Errorf("stage %s recorded no calls: %+v", s, st.Stages)
		}
	}
	if !strings.Contains(st.Table(), "train") {
		t.Errorf("breakdown table missing the train stage:\n%s", st.Table())
	}
	sys.ResetStats()
	if got := sys.Stats().Counters["factors_trained"]; got != 0 {
		t.Errorf("ResetStats left factors_trained = %d", got)
	}
}

func TestStatsDisabledByDefault(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Enabled {
		t.Fatal("stats should be disabled unless opted in")
	}
	if n := st.Counters["gibbs_samples"]; n != 0 {
		t.Errorf("disabled recorder counted %d gibbs samples", n)
	}
}

// countingObserver is safe for concurrent attachment plus the serialized
// dispatch guarantee; it only counts.
type countingObserver struct {
	starts, ends, progress atomic.Int64
}

func (o *countingObserver) StageStart(Stage)                             { o.starts.Add(1) }
func (o *countingObserver) StageEnd(Stage, time.Duration, time.Duration) { o.ends.Add(1) }
func (o *countingObserver) Progress(Stage, int, int, string)             { o.progress.Add(1) }

// TestConcurrentObserversUnderParallelDiagnosis drives parallel candidate
// evaluation with observers attached from multiple goroutines; run with
// -race this checks the dispatch-serialization contract.
func TestConcurrentObserversUnderParallelDiagnosis(t *testing.T) {
	o1, o2 := &countingObserver{}, &countingObserver{}
	sys := testSystem(t, WithWorkers(4), WithObserver(o1), WithObserver(o2))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Diagnose(demoSymptom()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if o1.starts.Load() != o1.ends.Load() {
		t.Errorf("observer 1: %d starts vs %d ends", o1.starts.Load(), o1.ends.Load())
	}
	if o1.starts.Load() != o2.starts.Load() {
		t.Errorf("observers diverge: %d vs %d starts", o1.starts.Load(), o2.starts.Load())
	}
	// 3 diagnoses × 5 stages.
	if got := o1.starts.Load(); got != 15 {
		t.Errorf("observer saw %d stage starts, want 15", got)
	}
	if o1.progress.Load() == 0 {
		t.Error("no progress events under parallel evaluation")
	}
}

func TestStatsOkBool(t *testing.T) {
	plain := testSystem(t)
	if _, ok := plain.FactorStoreStats(); ok {
		t.Error("FactorStoreStats ok=true without incremental training")
	}
	if _, ok := plain.SourceStats(); ok {
		t.Error("SourceStats ok=true without a resilient source")
	}

	stored := testSystem(t, WithIncrementalTraining(IncrementalTraining{}))
	if _, err := stored.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	fst, ok := stored.FactorStoreStats()
	if !ok {
		t.Fatal("FactorStoreStats ok=false with incremental training configured")
	}
	if fst.Refits == 0 {
		t.Errorf("store stats show no refits after a first diagnosis: %+v", fst)
	}

	resilient := testSystem(t, WithResilience(Resilience{
		Retry: &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	}))
	if _, err := resilient.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	sst, ok := resilient.SourceStats()
	if !ok {
		t.Fatal("SourceStats ok=false with a retry layer configured")
	}
	if sst.Reads == 0 {
		t.Errorf("resilient source saw no reads: %+v", sst)
	}
}

func TestObservabilityMuxServes(t *testing.T) {
	sys := testSystem(t, WithStats())
	if _, err := sys.Diagnose(demoSymptom()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.ObservabilityMux(false))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "murphy_factors_trained_total") {
		t.Errorf("/metrics missing counter family:\n%s", body)
	}
}
