package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
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
	target   metricRef
	features []metricRef
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
	cfg     Config
	db      *telemetry.DB
	g       *graph.Graph
	factors map[metricRef]*factor
	// current holds the value of every metric at the diagnosis time slice.
	current map[metricRef]float64
	// metricsOf caches the metric names per entity.
	metricsOf map[telemetry.EntityID][]string
	// trainLo/trainHi is the half-open training window on the slice grid.
	trainLo, trainHi int
	// now is the diagnosis time slice (the last slice of the window).
	now int
	// trainer builds one regression model per factor.
	trainer regress.Trainer
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
	// arenas pools the Gibbs resampler's scratch buffers across candidate
	// evaluations and DiagnoseParallel workers.
	arenas *arenaPool
	// kern holds the sampling kernel's compiled artifacts — the metricRef →
	// slot table and the per-(candidate, symptom) execution plan cache.
	// Shared (by pointer) with Rebind copies: plans depend only on factor
	// topology and trained weights, which Rebind preserves.
	kern *kernelTables
	// base caches the slot-indexed flat copies of `current` the kernel
	// starts each pass from. Per-model (Rebind changes `current`).
	base *slotBase
	// obs receives pipeline instrumentation (stage spans, counters,
	// histograms, progress events). Never nil: trainAt defaults it to
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

// TrainContext is Train with cooperative cancellation: training aborts with
// the context's error as soon as the context is done.
func TrainContext(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config) (*Model, error) {
	return TrainOpt(ctx, db, g, cfg, TrainOpts{Now: -1})
}

// TrainSource is TrainContext with the training-window reads routed through
// src — typically a resilience.Source (retries + circuit breaker) over a
// chaos injector or a remote collector. A read that still fails after the
// source's own resilience does not fail training: the series degrades to
// missing data (the §4.2 placeholder rule) and the failure is recorded on
// the model (ReadFailures). db remains the handle used for Rebind and
// explanation lookups.
func TrainSource(ctx context.Context, db *telemetry.DB, src telemetry.Source, g *graph.Graph, cfg Config) (*Model, error) {
	return TrainOpt(ctx, db, g, cfg, TrainOpts{Now: -1, Src: src})
}

// TrainAt fits the MRF with the training window ending at slice `now`
// (inclusive). A nil trainer uses ridge regression with cfg.Lambda — the
// paper's production choice; the Fig 8a comparison passes other trainers.
func TrainAt(db *telemetry.DB, g *graph.Graph, cfg Config, now int, trainer regress.Trainer) (*Model, error) {
	return trainAt(context.Background(), db, g, cfg, TrainOpts{Now: now, Trainer: trainer})
}

// TrainOpts collects the optional knobs of a training pass; the zero value
// (with Now set) reproduces TrainContext.
type TrainOpts struct {
	// Src interposes the resilient/faulty read path on the training-window
	// reads; nil reads the database directly (infallible).
	Src telemetry.Source
	// Now is the diagnosis time slice (training window endpoint, inclusive);
	// negative means the database's last slice.
	Now int
	// Trainer overrides the per-factor regression model; nil uses ridge with
	// cfg.Lambda (the paper's production choice).
	Trainer regress.Trainer
	// Store, when non-nil, reuses training work across Train calls: a
	// repeat at the same slice gets the stored factors back, and a slid
	// window updates per-(entity, window, hyperparameters) sufficient
	// statistics instead of recomputing every factor from scratch (see
	// FactorStore). It is only consulted on the default-trainer, direct-read
	// path; a custom Trainer or an interposed Src trains from scratch.
	Store *FactorStore
	// Obs receives pipeline instrumentation for this model (training spans
	// and counters now, inference spans on every later Diagnose call). Nil
	// falls back to obs.Global(), which is disabled by default.
	Obs *obs.Recorder
	// Workers bounds the training worker pool that fans the per-series
	// preprocessing and per-factor fits across cores. Zero or one runs the
	// historical serial loop (no goroutines, no channels); any larger count
	// produces bit-identical factors, so it is purely a latency knob.
	Workers int
}

// TrainOpt is the general training entry point: TrainContext plus the
// optional knobs of TrainOpts (interposed source, window endpoint, custom
// trainer, incremental factor store).
func TrainOpt(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config, opts TrainOpts) (*Model, error) {
	if opts.Now < 0 {
		opts.Now = db.Len() - 1
	}
	return trainAt(ctx, db, g, cfg, opts)
}

// trainAt is the shared training pass. opts.Src == nil reads the database
// directly (infallible); a non-nil source interposes the resilient/faulty
// read path, with per-series degradation on unrecoverable errors.
func trainAt(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config, opts TrainOpts) (*Model, error) {
	src, trainer := opts.Src, opts.Trainer
	now := opts.Now
	rec := opts.Obs
	if rec == nil {
		rec = obs.Global()
	}
	sp := rec.StartStage(obs.StageTrain)
	defer sp.End()
	cfg = cfg.sanitized()
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if now < 0 || now >= db.Len() {
		return nil, fmt.Errorf("core: training endpoint %d outside timeline [0,%d)", now, db.Len())
	}
	if trainer == nil {
		trainer = regress.RidgeTrainer(cfg.Lambda)
	}
	m := &Model{
		cfg:       cfg,
		db:        db,
		g:         g,
		factors:   make(map[metricRef]*factor),
		current:   make(map[metricRef]float64),
		metricsOf: make(map[telemetry.EntityID][]string),
		trainer:   trainer,
		now:       now,
		paths:     graph.NewSubgraphCache(g),
		arenas:    newArenaPool(),
		kern:      newKernelTables(),
		base:      &slotBase{},
		obs:       rec,
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

	// The store keeps trained factors across calls, which is only sound
	// when a factor is a pure function of the window: the default
	// (deterministic, stateless) trainer and the direct (infallible) read
	// path. When it is in play, the incremental pass replaces the whole
	// from-scratch pipeline below.
	if store := opts.Store; store != nil && opts.Trainer == nil && src == nil {
		if err := store.train(ctx, m, opts, rec); err != nil {
			return nil, err
		}
		return m, nil
	}

	// readRaw fetches one raw training window, through src when present.
	// A context abort fails training; any other read error (already past
	// the source's own retries) degrades the series to all-missing, which
	// the placeholder machinery below absorbs exactly like never-observed
	// history.
	readRaw := func(id telemetry.EntityID, name string) ([]float64, error) {
		if src == nil {
			return db.RawWindow(id, name, m.trainLo, m.trainHi), nil
		}
		w, err := src.ReadRawWindow(ctx, id, name, m.trainLo, m.trainHi)
		if err == nil && len(w) == m.trainHi-m.trainLo {
			return w, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: training cancelled: %w", cerr)
		}
		if err == nil {
			err = fmt.Errorf("core: short read (%d of %d slices)", len(w), m.trainHi-m.trainLo)
		}
		m.readFailures = append(m.readFailures, ReadFailure{Entity: id, Metric: name, Err: err})
		rec.Add(obs.CtrReadFailures, 1)
		w = make([]float64, m.trainHi-m.trainLo)
		for i := range w {
			w[i] = math.NaN()
		}
		return w, nil
	}
	metricNames := func(id telemetry.EntityID) []string {
		if src == nil {
			return db.MetricNames(id)
		}
		return src.MetricNames(id)
	}

	// Cache training windows for every metric of every node once. Missing
	// observations get a placeholder (§4.2 edge cases); the placeholder is
	// the metric's observed median — zero-filling would fabricate a step
	// aligned with whenever observation began, which pollutes correlations.
	// raws keeps the pre-fill copies so anomaly scoring can distinguish
	// observed history from placeholders without a second read.
	//
	// Enumeration and raw reads stay serial: sources may be stateful (fault
	// injectors, rate-limited collectors) and the order of recorded read
	// failures is part of the model's contract. The pure per-series work —
	// placeholder fill, centering for the Pearson ranking — fans out below.
	type seriesPrep struct {
		ref metricRef
		raw []float64      // pre-fill copy (NaN = missing)
		col []float64      // placeholder-filled training column
		ctr stats.Centered // centered view of col
	}
	var prep []*seriesPrep
	for _, id := range g.IDs() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: training cancelled: %w", err)
		}
		names := metricNames(id)
		m.metricsOf[id] = names
		for _, name := range names {
			w, err := readRaw(id, name)
			if err != nil {
				return nil, err
			}
			prep = append(prep, &seriesPrep{ref: metricRef{id, name}, raw: w})
		}
	}
	workers := opts.Workers
	if err := forEachIndex(ctx, workers, len(prep), func(i int) error {
		p := prep[i]
		p.col = append([]float64(nil), p.raw...)
		def := stats.Median(observedOnly(p.raw))
		if def != def {
			def = 0 // nothing observed at all: the type default
		}
		for t, v := range p.col {
			if v != v {
				p.col[t] = def
			}
		}
		p.ctr = stats.Center(p.col)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: training cancelled: %w", err)
	}
	windows := make(map[metricRef][]float64, len(prep))
	raws := make(map[metricRef][]float64, len(prep))
	centered := make(map[metricRef]*stats.Centered, len(prep))
	for _, p := range prep {
		windows[p.ref] = p.col
		raws[p.ref] = p.raw
		centered[p.ref] = &p.ctr
		m.current[p.ref] = p.col[len(p.col)-1]
	}

	// Fit one factor per (entity, metric). Jobs are assembled in graph order
	// and each writes only its own slot, so the trained model is
	// bit-identical whatever the pool size; the candidate list and its
	// ranking tie-break keys are built once per entity (the tie-break used to
	// call ref.String() inside the sort comparator — two string allocations
	// per comparison).
	type fitJob struct {
		ref      metricRef
		cand     []metricRef // shared across the entity's jobs
		candKeys []string    // cand[i].String(), precomputed
		candCtr  []*stats.Centered
		out      *factor
	}
	var jobs []*fitJob
	for _, id := range g.IDs() {
		// Collect all candidate neighbor metric refs.
		var cand []metricRef
		for _, nb := range g.InIDs(id) {
			for _, name := range m.metricsOf[nb] {
				cand = append(cand, metricRef{nb, name})
			}
		}
		candKeys := make([]string, len(cand))
		candCtr := make([]*stats.Centered, len(cand))
		for i, c := range cand {
			candKeys[i] = c.String()
			candCtr[i] = centered[c]
		}
		for _, name := range m.metricsOf[id] {
			jobs = append(jobs, &fitJob{
				ref:  metricRef{id, name},
				cand: cand, candKeys: candKeys, candCtr: candCtr,
			})
		}
	}
	pooled := workers > 1 && len(jobs) > 1
	if err := forEachIndex(ctx, workers, len(jobs), func(jid int) error {
		job := jobs[jid]
		ref := job.ref
		y := windows[ref]
		yctr := centered[ref]
		// The historical mean/std come from the centered view; the sum of
		// squares was accumulated in MeanStd's order, so the bits match.
		f := &factor{target: ref, hmean: yctr.Mean}
		if len(y) >= 2 {
			f.hstd = math.Sqrt(yctr.SumSq / float64(len(y)-1))
		}
		// Anomaly scoring uses only actually-observed history: an entity
		// whose past was never recorded (newly spawned, or the Table 2
		// missing-values corruption) must be judged against what was
		// seen, not against the training-time placeholders.
		obsY := observedOnly(raws[ref])
		// The in-incident tail does not count as judgeable history: if
		// everything observed is recent (post-erasure), normality cannot
		// be certified.
		if len(obsY) < n/4 {
			f.novel = true
			obsY = y
		}
		f.med = stats.Median(obsY)
		f.madScale = 1.4826 * stats.MAD(obsY)
		f.rscore = f.robustScoreAt(y[len(y)-1])
		// Rank candidates by |corr| with the target — one dot product per
		// pair over the precomputed centered columns; keep the top B
		// (one-in-ten rule, §4.2).
		rs := make([]float64, len(job.cand))
		order := make([]int, len(job.cand))
		for i := range job.cand {
			rs[i] = stats.AbsPearsonCentered(job.candCtr[i], yctr)
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if rs[ia] != rs[ib] {
				return rs[ia] > rs[ib]
			}
			return job.candKeys[ia] < job.candKeys[ib]
		})
		b := cfg.TopB
		if b > len(order) {
			b = len(order)
		}
		feats := make([]metricRef, 0, b)
		for _, i := range order[:b] {
			if rs[i] > 0 {
				feats = append(feats, job.cand[i])
			}
		}
		f.features = feats
		featCols := make([][]float64, len(feats))
		for j, fr := range feats {
			featCols[j] = windows[fr]
		}
		model := trainer()
		// The training windows already are the design matrix's columns: a
		// trainer with the column fast path (the default ridge) consumes
		// them directly; others get the row-major assembly.
		var ferr error
		if cf, ok := model.(regress.ColumnsFitter); ok {
			ferr = cf.FitColumns(featCols, y)
		} else {
			x := make([][]float64, n)
			for t := 0; t < n; t++ {
				row := make([]float64, len(feats))
				for j := range feats {
					row[j] = featCols[j][t]
				}
				x[t] = row
			}
			ferr = model.Fit(x, y)
		}
		if ferr != nil {
			return fmt.Errorf("core: fit factor %s: %w", ref, ferr)
		}
		f.model = model
		job.out = f
		rec.Add(obs.CtrFactorsTrained, 1)
		if pooled {
			rec.Add(obs.CtrTrainParallelFits, 1)
		}
		return nil
	}); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("core: training cancelled: %w", err)
		}
		return nil, err
	}
	for _, job := range jobs {
		m.factors[job.ref] = job.out
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
	nm.base = &slotBase{} // the flat start-state vectors track `current`
	nm.current = make(map[metricRef]float64, len(m.current))
	nm.factors = make(map[metricRef]*factor, len(m.factors))
	for _, id := range m.g.IDs() {
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			w := m.db.Window(id, name, now, now+1)
			nm.current[ref] = w[0]
			if old := m.factors[ref]; old != nil {
				f := *old
				f.rscore = f.robustScoreAt(w[0])
				nm.factors[ref] = &f
			}
		}
	}
	return &nm, nil
}

// Graph returns the relationship graph the model was trained on.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config returns the sanitized configuration in effect.
func (m *Model) Config() Config { return m.cfg }

// Now returns the diagnosis time slice.
func (m *Model) Now() int { return m.now }

// NumFactors returns the number of trained (entity, metric) factors.
func (m *Model) NumFactors() int { return len(m.factors) }

// CurrentValue returns the value of (id, metric) at the diagnosis slice.
func (m *Model) CurrentValue(id telemetry.EntityID, metric string) float64 {
	return m.current[metricRef{id, metric}]
}

// AnomalyScore returns the entity's anomaly score: the maximum robust |z|
// of any of its current metrics against their training-window history
// (how many deviations the metric sits from its historical center). Root
// causes are ranked by this score (§4.2 "Ranking the root causes").
func (m *Model) AnomalyScore(id telemetry.EntityID) float64 {
	best := 0.0
	for _, name := range m.metricsOf[id] {
		f := m.factors[metricRef{id, name}]
		if f == nil {
			continue
		}
		if f.rscore > best {
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
	for _, name := range m.metricsOf[id] {
		ref := metricRef{id, name}
		if f := m.factors[ref]; f != nil && f.novel {
			return true
		}
		th, ok := conservativeThresholds[name]
		if !ok {
			continue
		}
		if m.current[ref] > th {
			return true
		}
	}
	return false
}

// MetricZ returns the z-score of one current metric against its history.
func (m *Model) MetricZ(id telemetry.EntityID, metric string) float64 {
	ref := metricRef{id, metric}
	f := m.factors[ref]
	if f == nil || f.hstd == 0 {
		return 0
	}
	return (m.current[ref] - f.hmean) / f.hstd
}

// PredictMetric returns the factor's mean prediction for (id, metric) given
// the current values of its selected features. It is exported for the metric
// prediction micro-benchmarks (Fig 8a) and the cyclic-effects experiment
// (Fig 8b / Appendix A.2).
func (m *Model) PredictMetric(id telemetry.EntityID, metric string) (float64, bool) {
	f := m.factors[metricRef{id, metric}]
	if f == nil {
		return 0, false
	}
	return f.model.Predict(m.featureVector(f, m.current)), true
}

// observedOnly filters NaN (missing) observations out of a raw window.
func observedOnly(w []float64) []float64 {
	out := make([]float64, 0, len(w))
	for _, v := range w {
		if v == v {
			out = append(out, v)
		}
	}
	return out
}

// featureVector assembles a factor's input from a state map.
func (m *Model) featureVector(f *factor, state map[metricRef]float64) []float64 {
	x := make([]float64, len(f.features))
	for j, fr := range f.features {
		x[j] = state[fr]
	}
	return x
}
