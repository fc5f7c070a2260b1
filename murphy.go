// Package murphy is a from-scratch Go reproduction of Murphy, the
// performance-diagnosis system for distributed cloud applications presented
// at SIGCOMM 2023 (Harsh et al.). Given commonly available monitoring
// telemetry — entities, loose metadata associations, per-metric time series —
// Murphy diagnoses a problematic (entity, metric) symptom by training a
// Markov Random Field over the relationship graph online and running a
// counterfactual Gibbs-sampling-variant inference to find the entities whose
// normalization would alleviate the symptom. The diagnosis comes with a
// ranked short list of root causes and human-readable explanation chains.
//
// The package is a facade over the building blocks in internal/: the
// telemetry substrate, the relationship graph, the MRF core, the explanation
// generator, and the symptom detector. A minimal session:
//
//	db := telemetry.NewDB(600)
//	// ... add entities, associations, and metric observations ...
//	sys, err := murphy.New(db, murphy.WithSeeds("backend-vm"))
//	report, err := sys.Diagnose(telemetry.Symptom{
//		Entity: "backend-vm", Metric: telemetry.MetricCPU, High: true,
//	})
//	for _, rc := range report.Causes {
//		fmt.Println(rc.Entity, rc.Explanation)
//	}
//
// # API stability
//
// The exported surface of this package is versioned: Report carries
// SchemaVersion and round-trips through WriteJSON/ReadJSON, internal types
// appear only as intentional aliases (Config, RetryPolicy, BreakerConfig,
// FactorStore, Observer, …), and apisurface_test.go pins the exported
// declarations against a golden file so surface changes are deliberate.
// Each concern has exactly one option: WithSampler for the sampling kernel,
// WithResilience for the read path, WithIncrementalTraining for training
// reuse, WithWorkers for parallelism (each counterfactual test runs one
// sampling stream; candidates fan out on the worker pool).
// Context-taking methods (DiagnoseContext, WhatIfContext) are canonical;
// their context-less twins are one-line Background wrappers.
//
// # Observability
//
// The pipeline self-instruments: per-stage spans (train, prune, test, rank,
// explain) with wall/CPU timings, counters (factors trained, store hits,
// Gibbs samples, early-stop decisions, retries, breaker trips), and a
// progress-event stream. Subscribe with WithObserver, enable passive
// collection with WithStats, read it back with Stats, or serve it with
// ObservabilityMux (/metrics, /stats, /debug/vars). Disabled (the default),
// the whole layer costs one predicted branch per call site.
package murphy

import (
	"context"
	"fmt"

	"murphy/internal/anomaly"
	"murphy/internal/core"
	"murphy/internal/explain"
	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/resilience"
	"murphy/internal/telemetry"
)

// System is a diagnosis session bound to one monitoring database. It builds
// the relationship graph once; every Diagnose call trains the MRF online on
// the trailing window, per the paper's online-training design.
type System struct {
	db     *telemetry.DB
	g      *graph.Graph
	cfg    Config
	maxHop int
	seeds  []telemetry.EntityID
	// src is the read path used for online training; defaults to db.
	// WithResilience interposes another source and/or wraps it in the
	// resilience layer.
	src     telemetry.Source
	retry   *resilience.Policy
	brkCfg  *resilience.BreakerConfig
	breaker *resilience.Breaker
	rsrc    *resilience.Source
	// workers sizes the trained model's one pool: training fits and
	// candidate evaluations (WithWorkers).
	workers int
	// incStore, when set, amortizes training across Diagnose calls by
	// sliding per-factor sufficient statistics, and serves a repeat at the
	// same slice from the stored factors (WithIncrementalTraining).
	incStore *core.FactorStore
	// rec is the session's instrumentation recorder. Always non-nil;
	// disabled unless WithObserver/WithStats turned it on.
	rec *obs.Recorder
}

// New builds a diagnosis session over a monitoring database.
func New(db *telemetry.DB, opts ...Option) (*System, error) {
	if db == nil || db.NumEntities() == 0 {
		return nil, fmt.Errorf("murphy: empty monitoring database")
	}
	s := &System{
		db:     db,
		cfg:    core.DefaultConfig(),
		maxHop: -1,
		rec:    obs.New(),
	}
	for _, o := range opts {
		o(s)
	}
	if len(s.seeds) == 0 {
		s.seeds = db.Entities()
	}
	g, err := graph.Build(db, s.seeds, s.maxHop)
	if err != nil {
		return nil, fmt.Errorf("murphy: build relationship graph: %w", err)
	}
	s.g = g
	if s.src == nil {
		s.src = db
	}
	if s.retry != nil || s.brkCfg != nil {
		var retry resilience.Policy
		if s.retry != nil {
			retry = *s.retry
		} else {
			retry.MaxAttempts = 1 // breaker only, no retries
		}
		if s.brkCfg != nil {
			s.breaker = resilience.NewBreaker(*s.brkCfg)
			rec := s.rec
			s.breaker.SetOnTrip(func() { rec.Add(obs.CtrBreakerTrips, 1) })
		}
		s.rsrc = resilience.NewSource(s.src, retry, s.breaker)
		rec := s.rec
		s.rsrc.SetHook(func(retried, failed bool) {
			// Failed reads are counted by the training pass when it
			// degrades them to missing data; only retried-to-success
			// reads are invisible to it.
			if retried {
				rec.Add(obs.CtrReadRetries, 1)
			}
		})
		s.src = s.rsrc
	}
	return s, nil
}

// Graph exposes the relationship graph (entity count, cycles, …).
func (s *System) Graph() *graph.Graph { return s.g }

// Diagnose trains the MRF online on the trailing window and runs the full
// §4.2 inference for one symptom, then attaches explanation chains (§4.3).
// It is DiagnoseContext with a background context (cfg.Timeout, when set,
// still bounds the call).
func (s *System) Diagnose(symptom telemetry.Symptom) (*Report, error) {
	return s.DiagnoseContext(context.Background(), symptom)
}

// DiagnoseContext is the canonical diagnosis entry point: Diagnose under
// cooperative cancellation, for deadline-bound operation:
//
//   - A context deadline that expires mid-inference yields a *partial*
//     Report, not an error: the causes certified so far stay ranked,
//     unevaluated candidates are flagged in Skipped and fall back to
//     anomaly-score-only entries (Degraded=true) at the end of Causes.
//   - An explicitly cancelled context returns promptly with an error
//     wrapping context.Canceled.
//   - A deadline that expires during training (before inference can start)
//     returns an error: there is no model to answer with.
func (s *System) DiagnoseContext(ctx context.Context, symptom telemetry.Symptom) (*Report, error) {
	model, err := s.train(ctx)
	if err != nil {
		return nil, err
	}
	return s.diagnoseWith(ctx, model, symptom)
}

// diagnoseWith runs inference + explanation for one symptom against an
// already-trained model. It is the shared back half of DiagnoseContext and
// DiagnoseBatch.
func (s *System) diagnoseWith(ctx context.Context, model *core.Model, symptom telemetry.Symptom) (*Report, error) {
	diag, err := model.DiagnoseContext(ctx, symptom)
	if err != nil {
		return nil, err
	}
	labeler := explain.NewLabeler(model, s.db, explain.DefaultThresholds())
	report := &Report{
		SchemaVersion: SchemaVersion,
		Symptom:       symptom,
		Candidates:    diag.Candidates,
		RecentChanges: recentChanges(s.db, model),
		Partial:       diag.Partial,
		ReadFailures:  len(model.ReadFailures()),
	}
	for _, sk := range diag.Skipped {
		report.Skipped = append(report.Skipped, Skipped{Entity: sk.Entity, Reason: sk.Reason})
	}
	sp := s.rec.StartStage(obs.StageExplain)
	for _, c := range diag.Causes {
		rc := causeFromCore(c)
		if chain, ok := explain.Explain(labeler, s.g, c.Entity, symptom.Entity); ok {
			rc.Explanation = chain.Render(s.db)
		}
		report.Causes = append(report.Causes, rc)
	}
	// Degraded fallbacks ride at the tail: visible, flagged, never ahead of
	// a certified cause. No explanation chains — their evaluation never ran.
	for _, c := range diag.Degraded {
		report.Causes = append(report.Causes, causeFromCore(c))
	}
	sp.End()
	return report, nil
}

// recentChanges returns the configuration changes inside the model's
// training window [now-TrainWindow+1, now], taken from the trained model so
// the bounds are the sanitized window it actually trained on.
func recentChanges(db *telemetry.DB, model *core.Model) []telemetry.Event {
	now := model.Now()
	var out []telemetry.Event
	for _, ev := range db.EventsSince(now - model.Config().TrainWindow + 1) {
		if ev.Slice <= now {
			out = append(out, ev)
		}
	}
	return out
}

// BatchItem is one symptom's outcome within a DiagnoseBatch call: the report
// when its diagnosis completed, or the error that stopped it. Exactly one of
// Report and Err is set.
type BatchItem struct {
	Symptom telemetry.Symptom
	Report  *Report
	Err     error
}

// DiagnoseBatch diagnoses several symptoms of one incident against a single
// online-trained model: the MRF is trained once (on the pool configured by
// WithWorkers) and every symptom then reuses it — along with the
// session's shortest-path subgraph cache — instead of paying the per-call
// retraining that separate Diagnose calls would. Per-symptom failures
// (unknown entity, cancellation mid-inference) land in the item's Err
// without aborting the remaining symptoms; the call itself errors only when
// training fails, since then no symptom can be answered. Reports are
// identical to what per-symptom DiagnoseContext calls at the same time slice
// would produce.
func (s *System) DiagnoseBatch(ctx context.Context, symptoms []telemetry.Symptom) ([]BatchItem, error) {
	if len(symptoms) == 0 {
		return nil, nil
	}
	model, err := s.train(ctx)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(symptoms))
	for i, sym := range symptoms {
		items[i].Symptom = sym
		if err := ctx.Err(); err != nil {
			items[i].Err = fmt.Errorf("murphy: diagnosis cancelled: %w", err)
			continue
		}
		items[i].Report, items[i].Err = s.diagnoseWith(ctx, model, sym)
	}
	return items, nil
}

// train fits the MRF through the configured read path.
func (s *System) train(ctx context.Context) (*core.Model, error) {
	opts := core.TrainOpts{Now: -1, Store: s.incStore, Obs: s.rec, Workers: s.workers}
	if plain, ok := s.src.(*telemetry.DB); !ok || plain != s.db {
		// An interposed source (chaos, resilience, remote): route reads
		// through it. The factor store is bypassed on this path.
		opts.Src = s.src
	}
	return core.TrainOpt(ctx, s.db, s.g, s.cfg, opts)
}

// WhatIf answers the §7 performance-reasoning question: if the given entity
// metrics were set to these values, what would the target metric become? It
// is WhatIfContext with a background context.
func (s *System) WhatIf(overrides map[telemetry.EntityID]map[string]float64, target telemetry.EntityID, targetMetric string) (predicted, current float64, ok bool, err error) {
	return s.WhatIfContext(context.Background(), overrides, target, targetMetric)
}

// WhatIfContext is the canonical what-if entry point, under cooperative
// cancellation (the online training pass honors the context; the
// deterministic propagation itself is fast and runs to completion). The
// prediction propagates the intervention through the relationship graph with
// the configured number of Gibbs rounds; predicted is meaningful only when
// ok is true (some override can reach the target). The returned current
// value is the target's value at the diagnosis slice. A target or override
// naming an (entity, metric) series the trained model does not have is an
// error.
func (s *System) WhatIfContext(ctx context.Context, overrides map[telemetry.EntityID]map[string]float64, target telemetry.EntityID, targetMetric string) (predicted, current float64, ok bool, err error) {
	model, err := s.train(ctx)
	if err != nil {
		return 0, 0, false, err
	}
	if err := model.CheckIntervention(overrides, target, targetMetric); err != nil {
		return 0, 0, false, err
	}
	pred, reached := model.PredictUnderIntervention(overrides, target, targetMetric, 0)
	return pred, model.CurrentValue(target, targetMetric), reached, nil
}

// FindSymptoms scans an affected application for problematic (entity,
// metric) pairs at the latest time slice (Appendix A.1), most anomalous
// first, so a ticket that names only an application can be turned into
// concrete Diagnose calls.
func (s *System) FindSymptoms(app string) []telemetry.Symptom {
	det := anomaly.NewDetector()
	scored := det.ScanApp(s.db, app, s.db.Len()-1)
	out := make([]telemetry.Symptom, len(scored))
	for i, sc := range scored {
		out[i] = sc.Symptom
	}
	return out
}

// FactorStoreStats reports the incremental trainer's hit/refit/drift
// counters. ok is false when incremental training is not configured
// (WithIncrementalTraining unused), distinguishing "disabled" from a
// configured store that has absorbed no traffic yet.
func (s *System) FactorStoreStats() (stats FactorStoreStats, ok bool) {
	if s.incStore == nil {
		return FactorStoreStats{}, false
	}
	return s.incStore.Stats(), true
}

// FactorStore returns the session's incremental factor store, or nil when
// incremental training is not configured. Daemons use the handle to
// snapshot the store into their crash-safe checkpoints and restore it on
// warm restart.
func (s *System) FactorStore() *FactorStore {
	return s.incStore
}

// SourceStats reports what the resilient read layer absorbed so far. ok is
// false when no resilient read path is configured (WithResilience with a
// retry policy or breaker unused), distinguishing "disabled" from a
// configured layer that has absorbed nothing yet.
func (s *System) SourceStats() (stats SourceStats, ok bool) {
	if s.rsrc == nil {
		return SourceStats{}, false
	}
	return s.rsrc.Stats(), true
}
