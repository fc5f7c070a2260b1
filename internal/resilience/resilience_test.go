package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"murphy/internal/telemetry"
)

// noSleep is a sleep seam that records requested delays without waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5}.WithSleep(noSleep(&delays))
	calls := 0
	v, err := Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, fmt.Errorf("flaky: %w", telemetry.ErrTransient)
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 3}.WithSleep(noSleep(&delays))
	calls := 0
	boom := fmt.Errorf("boom: %w", telemetry.ErrTransient)
	_, err := Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		return 0, boom
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("exhausted error should wrap the last failure, got %v", err)
	}
}

// TestDoBackoffGrowsAndIsCapped checks the fixed schedule: the nominal delay
// doubles from BaseDelay up to the 1 s cap, and jitter keeps each delay
// within ±25% of it.
func TestDoBackoffGrowsAndIsCapped(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 11, BaseDelay: 10 * time.Millisecond}.WithSleep(noSleep(&delays))
	_, _ = Do(context.Background(), p, func(context.Context) (int, error) {
		return 0, fmt.Errorf("always: %w", telemetry.ErrTransient)
	})
	if len(delays) != 10 {
		t.Fatalf("slept %d times, want 10", len(delays))
	}
	for k, d := range delays {
		nominal := min(10*time.Millisecond<<k, time.Second)
		if d < nominal*3/4 || d > nominal*5/4 {
			t.Fatalf("delay[%d] = %v, want within 25%% of %v", k, d, nominal)
		}
	}
}

func TestDoJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var delays []time.Duration
		p := Policy{MaxAttempts: 4}.WithSleep(noSleep(&delays))
		_, _ = Do(context.Background(), p, func(context.Context) (int, error) {
			return 0, fmt.Errorf("always: %w", telemetry.ErrTransient)
		})
		return delays
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
	}
}

func TestDoRetriesOnlyTransient(t *testing.T) {
	p := Policy{MaxAttempts: 5}.WithSleep(noSleep(new([]time.Duration)))
	calls := 0
	permanent := errors.New("permanent")
	_, err := Do(context.Background(), p, func(context.Context) (int, error) {
		calls++
		return 0, permanent
	})
	if calls != 1 {
		t.Fatalf("non-retryable error retried %d times", calls)
	}
	if !errors.Is(err, permanent) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Do(ctx, Policy{MaxAttempts: 5}, func(context.Context) (int, error) {
		calls++
		return 0, errors.New("x")
	})
	if calls != 0 {
		t.Fatalf("cancelled context should prevent attempts, got %d", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err should wrap context.Canceled, got %v", err)
	}
	// Cancellation surfaced by the op itself also stops the loop.
	calls = 0
	_, err = Do(context.Background(), Policy{MaxAttempts: 5}.WithSleep(noSleep(new([]time.Duration))),
		func(context.Context) (int, error) {
			calls++
			return 0, fmt.Errorf("read: %w", context.DeadlineExceeded)
		})
	if calls != 1 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second}).
		WithClock(func() time.Time { return now })
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		b.Record(boom)
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker should refuse, got %v", err)
	}
	// Cooldown elapses: half-open, a probe is allowed.
	now = now.Add(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker should allow a probe: %v", err)
	}
	// Probe fails: reopen.
	b.Record(boom)
	if b.State() != Open {
		t.Fatalf("failed probe should reopen, state = %v", b.State())
	}
	// Next cooldown, successful probe closes.
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerIgnoresContextErrors(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1})
	b.Record(context.Canceled)
	b.Record(fmt.Errorf("wrapped: %w", context.DeadlineExceeded))
	if b.State() != Closed {
		t.Fatal("context errors must not trip the breaker")
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(nil)
	b.Record(boom)
	if b.State() != Closed {
		t.Fatal("non-consecutive failures must not trip")
	}
	b.Record(boom)
	if b.State() != Open {
		t.Fatal("two consecutive failures should trip")
	}
}

// flakySource fails the first `failFirst` reads of each (entity, metric)
// with a transient fault.
type flakySource struct {
	db        *telemetry.DB
	failFirst int
	calls     map[string]int
}

func (f *flakySource) Len() int                                   { return f.db.Len() }
func (f *flakySource) Entities() []telemetry.EntityID             { return f.db.Entities() }
func (f *flakySource) MetricNames(id telemetry.EntityID) []string { return f.db.MetricNames(id) }
func (f *flakySource) ReadRawWindow(ctx context.Context, id telemetry.EntityID, metric string, lo, hi int) ([]float64, error) {
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	key := string(id) + "/" + metric
	f.calls[key]++
	if f.calls[key] <= f.failFirst {
		return nil, fmt.Errorf("flaky read %s: %w", key, telemetry.ErrTransient)
	}
	return f.db.ReadRawWindow(ctx, id, metric, lo, hi)
}

func testDB(t *testing.T) *telemetry.DB {
	t.Helper()
	db := telemetry.NewDB(60)
	if err := db.AddEntity(&telemetry.Entity{ID: "a", Type: telemetry.TypeVM, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Observe("a", telemetry.MetricCPU, i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSourceAbsorbsTransientFaults(t *testing.T) {
	db := testDB(t)
	inner := &flakySource{db: db, failFirst: 2}
	src := NewSource(inner, Policy{MaxAttempts: 4}.WithSleep(noSleep(new([]time.Duration))), nil)
	w, err := src.ReadRawWindow(context.Background(), "a", telemetry.MetricCPU, 0, 10)
	if err != nil {
		t.Fatalf("transient faults should be absorbed: %v", err)
	}
	if len(w) != 10 || w[9] != 9 {
		t.Fatalf("window = %v", w)
	}
	st := src.Stats()
	if st.Reads != 1 || st.Retried != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSourceGivesUpAfterPolicy(t *testing.T) {
	db := testDB(t)
	inner := &flakySource{db: db, failFirst: 10}
	src := NewSource(inner, Policy{MaxAttempts: 3}.WithSleep(noSleep(new([]time.Duration))), nil)
	if _, err := src.ReadRawWindow(context.Background(), "a", telemetry.MetricCPU, 0, 10); !telemetry.IsTransient(err) {
		t.Fatalf("exhausted read should surface the transient fault, got %v", err)
	}
	if st := src.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSourceBreakerFailsFast(t *testing.T) {
	db := testDB(t)
	inner := &flakySource{db: db, failFirst: 1 << 30}
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute}).
		WithClock(func() time.Time { return now })
	src := NewSource(inner, Policy{MaxAttempts: 2}.WithSleep(noSleep(new([]time.Duration))), b)
	// First read: 2 attempts, both fail → breaker trips.
	if _, err := src.ReadRawWindow(context.Background(), "a", telemetry.MetricCPU, 0, 10); err == nil {
		t.Fatal("want error")
	}
	if b.State() != Open {
		t.Fatalf("breaker state = %v, want open", b.State())
	}
	before := len(inner.calls)
	// Second read: rejected without touching the inner source.
	_, err := src.ReadRawWindow(context.Background(), "a", telemetry.MetricMem, 0, 10)
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if len(inner.calls) != before {
		t.Fatal("open breaker must not reach the inner source")
	}
	st := src.Stats()
	if st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
