package murphy

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"murphy/internal/chaos"
	"murphy/internal/resilience"
	"murphy/internal/telemetry"
)

// demoDB builds a crawler-style incident: a client VM drives a heavy-hitter
// flow into a web VM whose load propagates to a backend VM.
func demoDB(t *testing.T) *telemetry.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	db := telemetry.NewDB(600)
	for _, e := range []*telemetry.Entity{
		{ID: "crawler", Type: telemetry.TypeVM, Name: "crawler", App: "shop"},
		{ID: "flow", Type: telemetry.TypeFlow, Name: "crawler->web", App: "shop"},
		{ID: "web", Type: telemetry.TypeVM, Name: "web", App: "shop", Tier: "web"},
		{ID: "backend", Type: telemetry.TypeVM, Name: "backend", App: "shop", Tier: "db"},
	} {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{{"crawler", "flow"}, {"flow", "web"}, {"web", "backend"}} {
		if err := db.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	total := 240
	for tt := 0; tt < total; tt++ {
		load := 40 + 8*math.Sin(float64(tt)/15) + rng.NormFloat64()*2
		if tt >= total-6 {
			load += 300
		}
		obs := func(id telemetry.EntityID, m string, v float64) {
			t.Helper()
			if err := db.Observe(id, m, tt, v); err != nil {
				t.Fatal(err)
			}
		}
		obs("crawler", telemetry.MetricNetTx, load*10+rng.NormFloat64())
		obs("flow", telemetry.MetricSessions, load+rng.NormFloat64())
		obs("flow", telemetry.MetricThroughput, load*1500+rng.NormFloat64()*100)
		obs("web", telemetry.MetricCPU, 0.1+load*0.001+rng.NormFloat64()*0.005)
		obs("backend", telemetry.MetricCPU, 0.12+load*0.0015+rng.NormFloat64()*0.005)
	}
	return db
}

func testSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.TrainWindow = 220
	sys, err := New(demoDB(t), append([]Option{WithConfig(cfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil db should error")
	}
	if _, err := New(telemetry.NewDB(60)); err == nil {
		t.Fatal("empty db should error")
	}
	db := demoDB(t)
	if _, err := New(db, WithSeeds("ghost")); err == nil {
		t.Fatal("unknown seed should error")
	}
}

func TestDiagnoseEndToEnd(t *testing.T) {
	sys := testSystem(t)
	report, err := sys.Diagnose(telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Causes) == 0 {
		t.Fatal("no causes found")
	}
	// The crawler-side entities must be implicated.
	hit := false
	for _, c := range report.Top(5) {
		if c.Entity == "crawler" || c.Entity == "flow" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("crawler/flow should be in the top causes: %+v", report.Causes)
	}
	// At least one cause carries an explanation chain ending at the symptom.
	explained := false
	for _, c := range report.Causes {
		if c.Explanation != "" {
			explained = true
			if !strings.Contains(c.Explanation, "backend") {
				t.Fatalf("explanation should reach the symptom entity: %s", c.Explanation)
			}
		}
	}
	if !explained {
		t.Fatal("expected at least one explanation chain")
	}
}

func TestWithAppAndMaxHops(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, WithApp(db, "shop"), WithMaxHops(1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Graph().Len() == 0 {
		t.Fatal("graph should be non-empty")
	}
}

func TestFindSymptoms(t *testing.T) {
	sys := testSystem(t)
	symptoms := sys.FindSymptoms("shop")
	if len(symptoms) == 0 {
		t.Fatal("incident should surface symptoms")
	}
	// The most anomalous symptoms should be high-direction spikes.
	if !symptoms[0].High {
		t.Fatalf("expected high symptom first, got %+v", symptoms[0])
	}
	if len(sys.FindSymptoms("no-such-app")) != 0 {
		t.Fatal("unknown app should yield no symptoms")
	}
}

func TestTopClamps(t *testing.T) {
	r := &Report{Causes: []Cause{{}, {}}}
	if len(r.Top(10)) != 2 || len(r.Top(1)) != 1 {
		t.Fatal("Top should clamp")
	}
}

func TestWhatIf(t *testing.T) {
	sys := testSystem(t)
	cur := func() float64 {
		db := demoDB(t)
		return db.At("backend", telemetry.MetricCPU, db.Len()-1)
	}()
	// Halving the flow's load should lower the predicted backend CPU.
	overrides := map[telemetry.EntityID]map[string]float64{
		"flow": {telemetry.MetricThroughput: 30000, telemetry.MetricSessions: 20},
	}
	pred, current, ok, err := sys.WhatIf(overrides, "backend", telemetry.MetricCPU)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("flow should reach backend")
	}
	if math.Abs(current-cur) > 1e-9 {
		t.Fatalf("current = %v, want the diagnosis-slice value %v", current, cur)
	}
	if pred >= current {
		t.Fatalf("reducing load should lower the prediction: %v -> %v", current, pred)
	}
	// An unreachable target reports !ok.
	dbx := demoDB(t)
	if err := dbx.AddEntity(&telemetry.Entity{ID: "island", Type: telemetry.TypeVM, Name: "i"}); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 240; tt++ {
		if err := dbx.Observe("island", telemetry.MetricCPU, tt, 1); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Samples = 200
	cfg.TrainWindow = 200
	sys2, err := New(dbx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := sys2.WhatIf(overrides, "island", telemetry.MetricCPU); err != nil || ok {
		t.Fatalf("unreachable target should report !ok: ok=%v err=%v", ok, err)
	}
}

// TestWhatIfUnknownMetric: a what-if naming a series the model does not
// have is an error naming it, whether the typo is in the target or in an
// override (which would otherwise pin its entity and move nothing).
func TestWhatIfUnknownMetric(t *testing.T) {
	sys := testSystem(t)
	overrides := map[telemetry.EntityID]map[string]float64{
		"flow": {telemetry.MetricThroughput: 30000},
	}
	for _, tc := range []struct {
		name      string
		overrides map[telemetry.EntityID]map[string]float64
		metric    string
		want      string
	}{
		{"target", overrides, "cpu_utl", "backend/cpu_utl"},
		{"override", map[telemetry.EntityID]map[string]float64{"flow": {"througput": 30000}}, telemetry.MetricCPU, "flow/througput"},
	} {
		pred, cur, ok, err := sys.WhatIf(tc.overrides, "backend", tc.metric)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s typo: pred %v current %v ok %v err %v; want an error naming %s", tc.name, pred, cur, ok, err, tc.want)
		}
		if ok {
			t.Fatalf("%s typo: ok must be false", tc.name)
		}
	}
}

func demoSymptom() telemetry.Symptom {
	return telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true}
}

func TestDiagnoseContextCancelled(t *testing.T) {
	sys := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := sys.DiagnoseContext(ctx, demoSymptom())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled diagnosis took %v, want prompt return", elapsed)
	}
}

func TestDiagnoseContextDeadlinePartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Samples = 60000
	cfg.GibbsRounds = 8
	cfg.TrainWindow = 220
	sys, err := New(demoDB(t), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	report, err := sys.DiagnoseContext(ctx, demoSymptom())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline should degrade, not error: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bound diagnosis took %v", elapsed)
	}
	if !report.Partial || len(report.Skipped) == 0 {
		t.Fatalf("report should be flagged partial with skipped candidates: partial=%v skipped=%d",
			report.Partial, len(report.Skipped))
	}
	// Degraded fallbacks appear in the ranking, flagged, after any certified
	// causes.
	sawDegraded := false
	for i, c := range report.Causes {
		if c.Degraded {
			sawDegraded = true
		} else if sawDegraded {
			t.Fatalf("certified cause %s at %d after a degraded one", c.Entity, i)
		}
	}
	if !sawDegraded {
		t.Fatal("skipped candidates should surface as degraded causes")
	}
}

func TestWithWorkersMatchesSequential(t *testing.T) {
	symptom := demoSymptom()
	seq, err := testSystem(t).Diagnose(symptom)
	if err != nil {
		t.Fatal(err)
	}
	par, err := testSystem(t, WithWorkers(4)).Diagnose(symptom)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Causes) != len(par.Causes) {
		t.Fatalf("worker fan-out changed the result: %d vs %d causes", len(seq.Causes), len(par.Causes))
	}
	for i := range seq.Causes {
		if seq.Causes[i].Entity != par.Causes[i].Entity {
			t.Fatalf("cause %d differs: %s vs %s", i, seq.Causes[i].Entity, par.Causes[i].Entity)
		}
		if math.Abs(seq.Causes[i].Score-par.Causes[i].Score) > 1e-12 {
			t.Fatalf("cause %d score differs: %v vs %v", i, seq.Causes[i].Score, par.Causes[i].Score)
		}
	}
}

func TestWithSourceRetryAbsorbsChaos(t *testing.T) {
	db := demoDB(t)
	inj := chaos.Wrap(db, chaos.Config{Seed: 11, FaultRate: 0.2})
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.TrainWindow = 220
	retry := resilience.Policy{MaxAttempts: 6}.
		WithSleep(func(context.Context, time.Duration) error { return nil })
	sys, err := New(db, WithConfig(cfg),
		WithResilience(Resilience{Source: inj, Retry: &retry}))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.Diagnose(demoSymptom())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Causes) == 0 {
		t.Fatal("no causes under chaos")
	}
	hit := false
	for _, c := range report.Top(5) {
		if c.Entity == "crawler" || c.Entity == "flow" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("crawler/flow should survive chaos in the top causes: %+v", report.Causes)
	}
	st, ok := sys.SourceStats()
	if !ok {
		t.Fatal("SourceStats should report the resilient layer as configured")
	}
	if st.Retried == 0 {
		t.Fatalf("retry layer absorbed nothing: %+v (injector %+v)", st, inj.Stats())
	}
	if report.ReadFailures != 0 && st.Failed == 0 {
		t.Fatalf("read failures without failed reads: report=%d stats=%+v", report.ReadFailures, st)
	}
}

func TestWithBreakerDegradesDeadSource(t *testing.T) {
	db := demoDB(t)
	inj := chaos.Wrap(db, chaos.Config{Seed: 7, FaultRate: 1.0})
	cfg := DefaultConfig()
	cfg.Samples = 200
	cfg.TrainWindow = 220
	sys, err := New(db, WithConfig(cfg), WithResilience(Resilience{
		Source:  inj,
		Breaker: &BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
	}))
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.Diagnose(demoSymptom())
	if err != nil {
		t.Fatalf("a dead source should degrade to missing data, not error: %v", err)
	}
	if report.ReadFailures == 0 {
		t.Fatal("every read failed; the report should say so")
	}
	st, ok := sys.SourceStats()
	if !ok {
		t.Fatal("SourceStats should report the resilient layer as configured")
	}
	if st.Rejected == 0 {
		t.Fatalf("breaker never opened: %+v", st)
	}
}

func TestWhatIfContextCancelled(t *testing.T) {
	sys := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sys.WhatIfContext(ctx, nil, "backend", telemetry.MetricCPU); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestReportRecentChanges pins the window RecentChanges reports: the trained
// model's [now-TrainWindow+1, now], with the sanitized window. demoDB ends at
// slice 239.
func TestReportRecentChanges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
		events map[int]string // slice -> detail
		want   []string
	}{
		{"window 100", 100, map[int]string{
			235: "replicas 2 -> 1",
			2:   "ancient",
			139: "one slice before the window",
			240: "after the diagnosis slice",
		}, []string{"replicas 2 -> 1"}},
		// TrainWindow 0 trains on the default 300 slices, all of demoDB.
		{"default window", 0, map[int]string{
			139: "resize",
			189: "migrate",
		}, []string{"resize", "migrate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := demoDB(t)
			for slice, detail := range tc.events {
				if err := db.RecordEvent(telemetry.Event{Slice: slice, Kind: telemetry.EventScaled, Entity: "web", Detail: detail}); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig()
			cfg.Samples = 200
			cfg.TrainWindow = tc.window
			sys, err := New(db, WithConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			report, err := sys.Diagnose(telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, ev := range report.RecentChanges {
				got = append(got, ev.Detail)
			}
			if strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("RecentChanges = %q, want only the in-window events %q", got, tc.want)
			}
		})
	}
}
