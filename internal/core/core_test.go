package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// chainDB builds a telemetry DB with a causal chain
//
//	client --(flow)--> front VM --> back VM
//
// plus an uncorrelated decoy VM attached to the back VM. Client RPS drives
// flow throughput, front CPU, and back CPU linearly with small noise. During
// the last `incident` slices the client spikes, dragging the chain up; the
// decoy also spikes (so it passes anomaly pruning) but independently of the
// backend's history.
func chainDB(t *testing.T, total, incident int, seed int64) *telemetry.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := telemetry.NewDB(600)
	ents := []*telemetry.Entity{
		{ID: "client", Type: telemetry.TypeClient, Name: "crawler", App: "app"},
		{ID: "flow", Type: telemetry.TypeFlow, Name: "crawler->front", App: "app"},
		{ID: "front", Type: telemetry.TypeVM, Name: "front", App: "app"},
		{ID: "back", Type: telemetry.TypeVM, Name: "back", App: "app"},
		{ID: "decoy", Type: telemetry.TypeVM, Name: "decoy", App: "app"},
	}
	for _, e := range ents {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{
		{"client", "flow"}, {"flow", "front"}, {"front", "back"}, {"decoy", "back"},
	} {
		if err := db.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	for tt := 0; tt < total; tt++ {
		rps := 50 + 10*math.Sin(float64(tt)/20) + rng.NormFloat64()*2
		if tt >= total-incident {
			rps += 200 // the incident: client goes heavy
		}
		thr := rps*1.5 + rng.NormFloat64()*2
		frontCPU := thr*0.2 + 5 + rng.NormFloat64()
		backCPU := frontCPU*1.2 + 3 + rng.NormFloat64()
		// The decoy is anomalous *now* but with a different temporal shape
		// (a slow ramp over the last 60 slices, not the incident's step), as
		// an independent fault would be.
		decoyCPU := 20 + rng.NormFloat64()*3
		if ramp := tt - (total - 60); ramp > 0 {
			decoyCPU += float64(ramp)
		}
		obs := func(id telemetry.EntityID, m string, v float64) {
			t.Helper()
			if err := db.Observe(id, m, tt, v); err != nil {
				t.Fatal(err)
			}
		}
		obs("client", telemetry.MetricRPS, rps)
		obs("flow", telemetry.MetricThroughput, thr)
		obs("front", telemetry.MetricCPU, frontCPU)
		obs("back", telemetry.MetricCPU, backCPU)
		obs("decoy", telemetry.MetricCPU, decoyCPU)
	}
	return db
}

func chainGraph(t *testing.T, db *telemetry.DB) *graph.Graph {
	t.Helper()
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameDiagnosis requires two diagnoses to certify identical causes: same
// entities, order, p-values, effects, and scores.
func sameDiagnosis(t *testing.T, label string, a, b *Diagnosis) {
	t.Helper()
	if len(a.Causes) != len(b.Causes) {
		t.Fatalf("%s: %d causes vs %d", label, len(a.Causes), len(b.Causes))
	}
	for i := range a.Causes {
		x, y := a.Causes[i], b.Causes[i]
		if x.Entity != y.Entity || x.PValue != y.PValue || x.Effect != y.Effect || x.Score != y.Score {
			t.Fatalf("%s: cause %d: %q p=%v e=%v vs %q p=%v e=%v",
				label, i, x.Entity, x.PValue, x.Effect, y.Entity, y.PValue, y.Effect)
		}
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Samples = 300
	cfg.TrainWindow = 200
	return cfg
}

func trainChain(t *testing.T) (*telemetry.DB, *Model) {
	t.Helper()
	return trainChainWorkers(t, 0)
}

// trainChainWorkers is trainChain on a pool of the given worker count, which
// the model's diagnoses then evaluate their candidates on.
func trainChainWorkers(t *testing.T, workers int) (*telemetry.DB, *Model) {
	t.Helper()
	db := chainDB(t, 220, 5, 42)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

func TestTrainBasics(t *testing.T) {
	_, m := trainChain(t)
	if m.NumFactors() != 5 {
		t.Fatalf("NumFactors = %d, want 5", m.NumFactors())
	}
	if m.Now() != 219 {
		t.Fatalf("Now = %d", m.Now())
	}
	// Current backend CPU should be well above its historical mean.
	if m.MetricZ("back", telemetry.MetricCPU) < 1 {
		t.Fatalf("backend CPU z = %v, want anomalous", m.MetricZ("back", telemetry.MetricCPU))
	}
	if !m.IsAnomalous("back") || !m.IsAnomalous("client") || !m.IsAnomalous("decoy") {
		t.Fatal("incident entities should be anomalous")
	}
	if m.AnomalyScore("back") <= 0 {
		t.Fatal("anomaly score should be positive")
	}
}

func TestTrainErrors(t *testing.T) {
	db := chainDB(t, 220, 5, 1)
	g, _ := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if _, err := Train(telemetry.NewDB(60), g, testConfig()); err == nil {
		t.Fatal("empty db should error")
	}
	if _, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: 9999}); err == nil {
		t.Fatal("endpoint past timeline should error")
	}
	if _, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: 3}); err == nil {
		t.Fatal("window of 4 slices should be too short")
	}
}

func TestDiagnoseFindsRootCauseNotDecoy(t *testing.T) {
	_, m := trainChain(t)
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) == 0 {
		t.Fatal("no root causes found")
	}
	found := map[telemetry.EntityID]bool{}
	for _, c := range diag.Causes {
		found[c.Entity] = true
		if c.PValue > m.Config().Alpha {
			t.Fatalf("cause %s has p=%v above alpha", c.Entity, c.PValue)
		}
		if c.Effect < m.Config().MinEffect {
			t.Fatalf("cause %s has effect %v below floor", c.Entity, c.Effect)
		}
	}
	if !found["client"] {
		t.Fatalf("client should be diagnosed as a root cause; got %v", diag.Ranked())
	}
	// The independently-shaped decoy must either be rejected by the
	// counterfactual test or at least rank strictly below the true cause
	// (correlation is necessary but not sufficient — §4.2's caveat).
	ranked := diag.Ranked()
	clientPos, decoyPos := -1, -1
	for i, id := range ranked {
		switch id {
		case "client":
			clientPos = i
		case "decoy":
			decoyPos = i
		}
	}
	if decoyPos != -1 && decoyPos < clientPos {
		t.Fatalf("decoy must not outrank the true cause; got %v", ranked)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	_, m := trainChain(t)
	if _, err := m.Diagnose(telemetry.Symptom{Entity: "ghost", Metric: telemetry.MetricCPU}); err == nil {
		t.Fatal("unknown entity should error")
	}
	if _, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: "no_such_metric"}); err == nil {
		t.Fatal("unknown metric should error")
	}
}

func TestCandidatesExcludeSymptomAndQuietEntities(t *testing.T) {
	_, m := trainChain(t)
	cands := m.Candidates("back")
	for _, c := range cands {
		if c == "back" {
			t.Fatal("symptom entity must not be a candidate")
		}
	}
	// front/flow/client/decoy all spike during the incident → all candidates.
	if len(cands) < 3 {
		t.Fatalf("expected most incident entities as candidates, got %v", cands)
	}
}

func TestEvaluateCandidateUnreachable(t *testing.T) {
	// A candidate with no path to the symptom must be rejected outright.
	db := chainDB(t, 220, 5, 3)
	// Add an isolated anomalous entity.
	if err := db.AddEntity(&telemetry.Entity{ID: "island", Type: telemetry.TypeVM, Name: "island"}); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 220; tt++ {
		v := 10.0
		if tt >= 215 {
			v = 90
		}
		if err := db.Observe("island", telemetry.MetricCPU, tt, v); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := graph.Build(db, []telemetry.EntityID{"back", "island"}, -1)
	m, err := Train(db, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.EvaluateCandidate("island", telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}); ok {
		t.Fatal("unreachable candidate must not qualify")
	}
}

func TestDiagnoseDeterministic(t *testing.T) {
	_, m1 := trainChain(t)
	_, m2 := trainChain(t)
	d1, err := m1.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m2.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := d1.Ranked(), d2.Ranked()
	if len(r1) != len(r2) {
		t.Fatalf("non-deterministic lengths: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("non-deterministic ranking: %v vs %v", r1, r2)
		}
	}
}

func TestLowSymptomDirection(t *testing.T) {
	// Invert the scenario: backend "throughput" collapses when client RPS
	// spikes (e.g. starvation). A Low symptom should still find the client.
	rng := rand.New(rand.NewSource(5))
	db := telemetry.NewDB(600)
	for _, e := range []*telemetry.Entity{
		{ID: "client", Type: telemetry.TypeClient, Name: "c"},
		{ID: "back", Type: telemetry.TypeVM, Name: "b"},
	} {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Associate("client", "back", telemetry.Bidirectional); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 220; tt++ {
		rps := 50 + rng.NormFloat64()*3
		if tt >= 215 {
			rps += 200
		}
		thr := 1000 - 4*rps + rng.NormFloat64()*5
		if err := db.Observe("client", telemetry.MetricRPS, tt, rps); err != nil {
			t.Fatal(err)
		}
		if err := db.Observe("back", telemetry.MetricThroughput, tt, thr); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	m, err := Train(db, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricThroughput, High: false})
	if err != nil {
		t.Fatal(err)
	}
	// The client must be implicated; the symptom entity itself may also
	// appear (self-candidates are legal root causes by design).
	found := false
	for _, c := range diag.Causes {
		if c.Entity == "client" {
			found = true
		}
	}
	if !found {
		t.Fatalf("low-direction symptom should blame client, got %v", diag.Ranked())
	}
}

func TestConfigSanitized(t *testing.T) {
	var c Config // all zero
	s := Sanitized(c)
	d := DefaultConfig()
	if s.TopB != d.TopB || s.GibbsRounds != d.GibbsRounds || s.Samples != d.Samples ||
		s.TrainWindow != d.TrainWindow || s.Alpha != d.Alpha || s.AnomalyZ != d.AnomalyZ {
		t.Fatalf("sanitized zero config should match defaults: %+v", s)
	}
	if s.Sampler != (SamplerConfig{}) {
		t.Fatalf("sanitized zero sampler = %+v, want the zero value", s.Sampler)
	}
	c = DefaultConfig()
	c.Alpha = 5 // invalid
	if got := Sanitized(c).Alpha; got != d.Alpha {
		t.Fatalf("invalid alpha should reset, got %v", got)
	}
	c.Sampler = SamplerConfig{Precision: PrecisionFloat32, EarlyStop: true}
	if got := Sanitized(c).Sampler; got != c.Sampler {
		t.Fatalf("sampler fields should pass through: got %+v, want %+v", got, c.Sampler)
	}
}

func TestRankedOrderByAnomalyScore(t *testing.T) {
	_, m := trainChain(t)
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diag.Causes); i++ {
		if diag.Causes[i-1].Score < diag.Causes[i].Score {
			t.Fatal("causes must be sorted by descending anomaly score")
		}
	}
}
