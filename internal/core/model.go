package core

import (
	"context"
	"fmt"
	"math"

	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// metricRef names one metric of one entity.
type metricRef struct {
	entity telemetry.EntityID
	metric string
}

func (r metricRef) String() string { return string(r.entity) + "/" + r.metric }

// factor is the learned per-metric factor: a model predicting one metric of
// an entity from selected neighbor metrics in the same time slice. The MRF's
// P_v is the product of its per-metric factors.
type factor struct {
	// features are the selected neighbor metrics, as slots of the index
	// the factor was trained under.
	features []int32
	model    regress.Predictor
	// hmean/hstd are the historical mean and std of the target metric over
	// the training window; used for counterfactual placement.
	hmean, hstd float64
	// med and madScale are the training-window median and normal-consistent
	// MAD scale, kept so the robust anomaly score can be recomputed when a
	// model is rebound to a different diagnosis slice.
	med, madScale float64
	// rscore is |robust z| of the current value against the training
	// window (median/MAD). Plain z-scores of step anomalies saturate at
	// √((1-p)/p) regardless of magnitude once the incident is inside the
	// window, so ranking uses the robust score instead.
	rscore float64
	// novel marks a metric with too little observed history to judge
	// normality (a newly spawned entity, or erased history). Pruning treats
	// such entities conservatively: they cannot be certified normal.
	novel bool
}

// robustScoreAt recomputes the factor's anomaly score for a value v.
func (f *factor) robustScoreAt(v float64) float64 {
	var z float64
	switch {
	case f.madScale > 0:
		z = (v - f.med) / f.madScale
	case f.hstd > 0:
		z = (v - f.hmean) / f.hstd
	case v != f.med:
		z = 1e6
	}
	if z > 1e6 {
		z = 1e6
	}
	if z < -1e6 {
		z = -1e6
	}
	return math.Abs(z)
}

// Model is a trained MRF over a relationship graph: one factor per (entity,
// metric) pair, learned online from the trailing training window (§4.2
// "Model training"). It also caches the current (latest-slice) value of
// every metric, which is the state the inference algorithm perturbs.
type Model struct {
	cfg Config
	db  *telemetry.DB
	g   *graph.Graph
	// idx is the series layout the model was trained under: factors and
	// current are indexed by its slots.
	idx     *seriesIndex
	factors []*factor
	// current holds the value of every metric at the diagnosis time slice.
	// It is also the float64 kernel's start state.
	current []float64
	// trainLo/trainHi is the half-open training window on the slice grid.
	trainLo, trainHi int
	// now is the diagnosis time slice (the last slice of the window).
	now int
	// readFailures records telemetry reads that failed even after the
	// source's own resilience; training degraded each to missing data.
	readFailures []ReadFailure
	// evalHook, when set, runs at the start of every candidate evaluation.
	// It is a fault-injection seam: a hook that panics or stalls models a
	// poisoned candidate evaluator. Production diagnoses leave it nil.
	evalHook func(telemetry.EntityID)
	// paths memoizes shortest-path subgraphs keyed (candidate, symptom):
	// every candidate of one diagnosis shares the symptom's reverse BFS, and
	// repeated diagnoses reuse whole subgraphs. Shared (by pointer) with
	// Rebind copies — the graph is immutable after Build.
	paths *graph.SubgraphCache
	// workers bounds the pool that evaluates a diagnosis's candidates
	// (TrainOpts.Workers); zero or one evaluates them inline.
	workers int
	// arenas pools the Gibbs resampler's scratch buffers across candidate
	// evaluations.
	arenas *arenaPool
	// base caches the float32 copy of `current` the float32 kernel starts
	// each pass from. Per-model (Rebind changes `current`).
	base *slotBase
	// obs receives pipeline instrumentation (stage spans, counters,
	// histograms, progress events). Never nil: TrainOpt defaults it to
	// obs.Global(), which is disabled unless something enables it, so the
	// hot paths pay only an atomic-load guard.
	obs *obs.Recorder
}

// ReadFailure records one training-window read that failed after the
// telemetry source's retries were exhausted. The affected series was
// degraded to missing data (placeholder-filled), per the paper's
// missing-history rule, instead of failing the diagnosis.
type ReadFailure struct {
	Entity telemetry.EntityID
	Metric string
	Err    error
}

// ReadFailures lists the degraded-to-missing reads of the training pass.
func (m *Model) ReadFailures() []ReadFailure { return m.readFailures }

// SetEvalHook installs a hook invoked at the start of every candidate
// evaluation, before any sampling. It exists for fault-injection tests and
// chaos drills — a hook that panics models a poisoned evaluator, which the
// diagnosis must absorb as a failed candidate rather than crash on.
func (m *Model) SetEvalHook(h func(telemetry.EntityID)) { m.evalHook = h }

// SetRecorder swaps the model's instrumentation recorder. rec must not be
// nil; pass a disabled recorder to silence a model trained with stats on.
// Not safe to call concurrently with a running diagnosis.
func (m *Model) SetRecorder(rec *obs.Recorder) { m.obs = rec }

// Train fits the MRF on the database restricted to the relationship graph,
// using the cfg.TrainWindow trailing slices ending at the database's last
// slice. Murphy never keeps pre-trained models: this runs on every
// diagnosis call so the window includes in-incident points.
func Train(db *telemetry.DB, g *graph.Graph, cfg Config) (*Model, error) {
	return TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1})
}

// TrainOpts collects the optional knobs of a training pass; the zero value
// (with Now set) reads the database directly with the default trainer.
type TrainOpts struct {
	// Src interposes the resilient/faulty read path on the training-window
	// reads — typically a resilience.Source (retries + circuit breaker) over
	// a chaos injector or a remote collector; nil reads the database directly
	// (infallible). A read that still fails after the source's own resilience
	// does not fail training: the series degrades to missing data (the §4.2
	// placeholder rule) and the failure is recorded on the model
	// (ReadFailures). The database remains the handle used for Rebind and
	// explanation lookups.
	Src telemetry.Source
	// Now is the diagnosis time slice (training window endpoint, inclusive);
	// negative means the database's last slice.
	Now int
	// Trainer overrides the per-factor regression model; nil uses ridge with
	// cfg.Lambda (the paper's production choice). The Fig 8a comparison
	// passes other trainers.
	Trainer regress.Trainer
	// Store, when non-nil, reuses training work across Train calls: a
	// repeat at the same slice gets the stored factors back, and a slid
	// window updates per-(entity, window, hyperparameters) sufficient
	// statistics instead of recomputing every factor from scratch (see
	// FactorStore). It is only consulted on the default-trainer, direct-read
	// path; a custom Trainer or an interposed Src trains through a fresh
	// store instead.
	Store *FactorStore
	// Obs receives pipeline instrumentation for this model (training spans
	// and counters now, inference spans on every later Diagnose call). Nil
	// falls back to obs.Global(), which is disabled by default.
	Obs *obs.Recorder
	// Workers bounds the model's one worker pool: the training pass fans
	// its per-series preprocessing and per-factor fits across it, and every
	// later Diagnose call its candidate evaluations. Zero or one runs both
	// as the plain serial loop (no goroutines); any larger count produces
	// bit-identical factors and diagnoses, so it is purely a latency knob.
	Workers int
}

// TrainOpt is the general training entry point: Train with cooperative
// cancellation (training aborts with the context's error as soon as the
// context is done) plus the optional knobs of TrainOpts (interposed source,
// window endpoint, custom trainer, incremental factor store).
func TrainOpt(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config, opts TrainOpts) (*Model, error) {
	rec := opts.Obs
	if rec == nil {
		rec = obs.Global()
	}
	sp := rec.StartStage(obs.StageTrain)
	defer sp.End()
	cfg = Sanitized(cfg)
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	now := opts.Now
	if now < 0 {
		now = db.Len() - 1
	}
	if now >= db.Len() {
		return nil, fmt.Errorf("core: training endpoint %d outside timeline [0,%d)", now, db.Len())
	}
	m := &Model{
		cfg:     cfg,
		db:      db,
		g:       g,
		now:     now,
		workers: opts.Workers,
		paths:   graph.NewSubgraphCache(g),
		arenas:  newArenaPool(),
		base:    &slotBase{},
		obs:     rec,
	}
	if rec.Enabled() {
		// The hook costs a closure call per subgraph lookup, so it is only
		// installed when the recorder is live at training time.
		m.paths.SetHook(func(hit bool) {
			if hit {
				rec.Add(obs.CtrSubgraphCacheHits, 1)
			} else {
				rec.Add(obs.CtrSubgraphCacheMisses, 1)
			}
		})
	}
	m.trainHi = now + 1
	m.trainLo = m.trainHi - cfg.TrainWindow
	if m.trainLo < 0 {
		m.trainLo = 0
	}
	n := m.trainHi - m.trainLo
	if n < 8 {
		return nil, fmt.Errorf("core: training window too short (%d slices)", n)
	}

	// A store keeps trained factors across calls, which is only sound when a
	// factor is a pure function of the window: the default (deterministic,
	// stateless) trainer and the direct (infallible) read path. Any other
	// pass trains through a fresh store, whose first pass fits every factor
	// from scratch.
	store := opts.Store
	if store == nil || opts.Trainer != nil || opts.Src != nil {
		store = NewFactorStore()
	}
	if err := store.train(ctx, m, opts, rec); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebind returns a copy of the model whose diagnosis slice is `now`: the
// factors stay as trained, but every current metric value and anomaly score
// is re-read from the database at the new slice. This is how the §6.5.1
// offline-training comparison evaluates a stale model against in-incident
// state.
func (m *Model) Rebind(now int) (*Model, error) {
	if now < 0 || now >= m.db.Len() {
		return nil, fmt.Errorf("core: rebind slice %d outside timeline [0,%d)", now, m.db.Len())
	}
	nm := *m
	nm.now = now
	nm.base = &slotBase{} // the float32 start state tracks `current`
	nm.current = make([]float64, len(m.current))
	nm.factors = make([]*factor, len(m.factors))
	for s, ref := range m.idx.refs {
		w := m.db.Window(ref.entity, ref.metric, now, now+1)
		nm.current[s] = w[0]
		if old := m.factors[s]; old != nil {
			f := *old
			f.rscore = f.robustScoreAt(w[0])
			nm.factors[s] = &f
		}
	}
	return &nm, nil
}

// Config returns the sanitized configuration in effect.
func (m *Model) Config() Config { return m.cfg }

// Now returns the diagnosis time slice.
func (m *Model) Now() int { return m.now }

// NumFactors returns the number of trained (entity, metric) factors.
func (m *Model) NumFactors() int { return len(m.factors) }

// CurrentValue returns the value of (id, metric) at the diagnosis slice, or
// 0 when the model has no such series.
func (m *Model) CurrentValue(id telemetry.EntityID, metric string) float64 {
	if s, ok := m.idx.slot(id, metric); ok {
		return m.current[s]
	}
	return 0
}

// factorOf returns the (id, metric) factor, nil when the model has none.
func (m *Model) factorOf(id telemetry.EntityID, metric string) (*factor, int32) {
	s, ok := m.idx.slot(id, metric)
	if !ok {
		return nil, -1
	}
	return m.factors[s], s
}

// AnomalyScore returns the entity's anomaly score: the maximum robust |z|
// of any of its current metrics against their training-window history
// (how many deviations the metric sits from its historical center). Root
// causes are ranked by this score (§4.2 "Ranking the root causes").
func (m *Model) AnomalyScore(id telemetry.EntityID) float64 {
	best := 0.0
	lo, hi := m.idx.nodeSlots(id)
	for _, f := range m.factors[lo:hi] {
		if f != nil && f.rscore > best {
			best = f.rscore
		}
	}
	return best
}

// conservativeThresholds are the paper's absolute pruning thresholds
// (footnote 7): 25% utilization, 0.1% drop rate, 50 sessions. Metrics whose
// units are environment-specific (latency, RPS, raw byte rates) have no
// absolute threshold and rely on the z-score test.
var conservativeThresholds = map[string]float64{
	telemetry.MetricCPU:        0.25,
	telemetry.MetricMem:        0.25,
	telemetry.MetricDiskUtil:   0.25,
	telemetry.MetricBufferUtil: 0.25,
	telemetry.MetricSpaceUtil:  0.25,
	telemetry.MetricPktDrops:   0.001,
	telemetry.MetricLoss:       0.001,
	telemetry.MetricRetransmit: 0.01,
	telemetry.MetricSessions:   50,
}

// IsAnomalous reports whether the entity clears the conservative pruning
// criteria of §4.2: some current metric is at least cfg.AnomalyZ robust
// standard deviations from its observed history, or exceeds the paper's
// absolute conservative threshold for its kind. The absolute arm keeps the
// search usable for entities whose history was never observed.
func (m *Model) IsAnomalous(id telemetry.EntityID) bool {
	if m.AnomalyScore(id) >= m.cfg.AnomalyZ {
		return true
	}
	lo, hi := m.idx.nodeSlots(id)
	for s := lo; s < hi; s++ {
		if f := m.factors[s]; f != nil && f.novel {
			return true
		}
		th, ok := conservativeThresholds[m.idx.refs[s].metric]
		if !ok {
			continue
		}
		if m.current[s] > th {
			return true
		}
	}
	return false
}

// MetricZ returns the z-score of one current metric against its history.
func (m *Model) MetricZ(id telemetry.EntityID, metric string) float64 {
	f, s := m.factorOf(id, metric)
	if f == nil || f.hstd == 0 {
		return 0
	}
	return (m.current[s] - f.hmean) / f.hstd
}

// featureVector assembles a factor's input from a slot-indexed state into
// x's storage.
func featureVector(x []float64, f *factor, state []float64) []float64 {
	x = x[:0]
	for _, fs := range f.features {
		x = append(x, state[fs])
	}
	return x
}
