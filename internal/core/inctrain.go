package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"

	"murphy/internal/graph"
	"murphy/internal/mat"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// Incremental training defaults and guard thresholds.
const (
	// DefaultDriftThreshold is the MASE score of a factor's one-step-ahead
	// predictions above which the incremental trainer falls back to a full
	// refit: the stale model predicts several times worse than a naive
	// forecaster, so the neighbor relationship it learned has shifted.
	DefaultDriftThreshold = 4.0
	// DefaultRefreshEvery bounds how many window slides a factor's sufficient
	// statistics may accumulate before a full re-anchor, capping the
	// accumulated floating-point drift of the slid Gram/cross sums.
	DefaultRefreshEvery = 512
	// selectionMarginEps is the minimum |Pearson| gap between adjacent
	// feature-selection ranks for the incremental ranking to be trusted: the
	// slid correlations differ from the full recomputation by rounding only,
	// so any gap at least this wide keeps the exact order. Candidates tied
	// closer than this where the selection depends on them take their exact
	// (bit-identical) values instead (certifyRanking).
	selectionMarginEps = 1e-9
	// recenterFrac: a series' shifted moments are re-anchored once the mean
	// has drifted this fraction of a standard deviation from the anchor,
	// keeping the centered-sum-of-squares cancellation error bounded.
	recenterFrac = 0.25
	// driftMinPairs is the one-step-ahead prediction evidence required
	// before the drift score can trip a retrain.
	driftMinPairs = 8
	// driftWindow is how many one-step-ahead pairs the drift tracker keeps.
	driftWindow = 32
	// factorStoreSnapshotVersion versions the persisted store layout.
	factorStoreSnapshotVersion = 1
)

// seriesState is the trainer's per-(entity, metric) state: the
// placeholder-filled window, its sorted copy (for O(1) median / O(n) MAD),
// shifted running moments, and the in-window missing-value bookkeeping.
type seriesState struct {
	win    []float64 // placeholder-filled window, aligned [lo, hi)
	sorted *stats.SortedWindow
	mom    stats.WindowMoments
	// nanAt lists the absolute slice indices of missing raw observations
	// inside the window. Non-empty means the series is "dirty": its
	// placeholder fill is the observed median of the *current* window, which
	// changes as the window slides, so the series is rebuilt from the raw
	// window on every train instead of slid.
	nanAt []int
	// epoch is bumped on every full rebuild; factor statistics recorded
	// against an older epoch are stale and force a refit/recompute.
	epoch uint32
	// med/madScale/novel are the target-side robust statistics, stored only
	// for dirty series (computed over the observed values at rebuild time);
	// clean series derive them from the sorted window on demand.
	med, madScale float64
	novel         bool
	// enter/leave are the last slide's rows minus mom.Shift: the values that
	// entered the window and the ones that expired. slideSeries computes them
	// once per pass for every factor that reads the series (the shift stays
	// fixed until phase 4 recenters); a rebuilt series has none, since every
	// statistic reading it is recomputed instead of slid.
	enter, leave []float64
}

// targetStats returns the robust center/scale and novelty flag for the
// series as a factor target. Anomaly scoring uses only actually-observed
// history: an entity whose past was never recorded (newly spawned, or the
// Table 2 missing-values corruption) is judged against what was seen, not
// against the training-time placeholders.
func (st *seriesState) targetStats() (med, madScale float64, novel bool) {
	if len(st.nanAt) > 0 {
		return st.med, st.madScale, st.novel
	}
	return st.sorted.Median(), 1.4826 * st.sorted.MAD(), false
}

// newSeriesState builds the full per-series state from a raw window starting
// at absolute slice lo. Missing observations (NaN) get a placeholder (§4.2
// edge cases): the metric's observed median — zero-filling would fabricate a
// step aligned with whenever observation began, which pollutes correlations.
// A series observed for under a quarter of the window is novel: the
// in-incident tail does not count as judgeable history, so normality cannot
// be certified.
func newSeriesState(raw []float64, lo int) *seriesState {
	st := &seriesState{win: append([]float64(nil), raw...)}
	for i, v := range raw {
		if v != v {
			st.nanAt = append(st.nanAt, lo+i)
		}
	}
	if len(st.nanAt) > 0 {
		obsY := observedOnly(raw)
		def := stats.Median(obsY)
		if def != def {
			def = 0 // nothing observed at all: the type default
		}
		for i, v := range st.win {
			if v != v {
				st.win[i] = def
			}
		}
		st.novel = len(obsY) < len(raw)/4
		if st.novel {
			obsY = st.win
		}
		st.med = stats.Median(obsY)
		st.madScale = 1.4826 * stats.MAD(obsY)
	}
	st.mom.Anchor(st.win)
	st.sorted = stats.NewSortedWindow(st.win)
	return st
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

// storeEntry is the incremental trainer's per-factor state: the last trained
// factor plus the sufficient statistics that slide with the window — the
// shifted Gram over the selected features, the matching cross-term vector,
// the per-candidate cross products driving feature selection, and the drift
// tracker.
type storeEntry struct {
	f        *factor // immutable, shared with the models that got it
	fittedHi int     // window endpoint the factor was fitted/derived at

	// feats are the selected feature slots in ranked order, shared with f:
	// a new selection replaces the slice, never writes into it.
	feats       []int32
	cand        []int32 // candidate slots the cross stats align with (the index's list)
	targetEpoch uint32
	featEpochs  []uint32
	candEpochs  []uint32

	gram   *mat.Dense // Σ (x_j−sh_j)(x_k−sh_k) over feats; nil when no feats
	xty    []float64  // Σ (x_j−sh_j)(y−sh_y) over feats
	cross  []float64  // Σ (x_c−sh_c)(y−sh_y) per candidate
	slides int        // slides since the statistics were last anchored
	drift  *stats.DriftTracker
}

// FactorStore is the MRF's training pass (§4.2 "Model training") and its
// persistent incremental state: it keeps per-(entity, metric) sufficient
// statistics — shifted Gram matrices, cross-term vectors, running moments,
// sorted windows — keyed to an explicit training window [lo, hi) and the
// hyperparameters (TrainWindow, TopB, Lambda) they were built under, and
// slides them as the window advances instead of letting every Train call
// recompute mat.GramCols, the |Pearson| ranking, and the robust statistics
// from scratch. Every training pass runs through a store: TrainOpts.Store
// when reuse is sound, a fresh one otherwise, whose first pass fits every
// factor from scratch.
//
// A factor is served from the slid statistics (a "hit": one O(B³) solve, no
// O(n·C) passes). Where the slid ranking cannot prove the feature selection
// (adjacent ranks within selectionMarginEps — routine in homogeneous
// topologies full of near-duplicate series), the store computes the exact
// centered |Pearson| a full fit computes for just the tied candidates that
// reach into the top B, and a changed selection is adopted in place (a
// "reselect": cross terms picked from the slid per-candidate accumulators,
// Gram entries of retained feature pairs carried over, only the pairs with a
// newly selected feature recomputed). A full refit happens only when a guard
// trips:
//
//   - the MASE drift score of the factor's one-step-ahead predictions
//     exceeds the drift threshold (the learned relationship shifted);
//   - numeric conditioning fails (non-PD standardized Gram, negative
//     residual sum of squares), or RefreshEvery slides accumulated;
//   - the window slid by more than half its width, the hyperparameters or
//     database changed, or a series has in-window missing values (its
//     placeholder fill is window-dependent).
//
// A full refit ranks the candidates by exact centered |Pearson| and fits the
// factor's regression model over the whole window, so an anchored or refit
// factor is bit-identical to a fresh store's; slid factors agree within a
// rounding bound (property-tested by the metamorph incremental arm).
//
// The store serializes to a compact snapshot (Snapshot, which murphyd writes
// inside its own crash-safe state file) and restores (RestoreSnapshot) with
// consistency validation against the restored database, so a murphyd warm
// restart's first diagnosis performs zero full retrains.
//
// A train at the same window as the last one is a pure hit: every factor
// comes back exactly as fitted. A caller's store is only consulted on the
// default-trainer, direct-read path, and it identifies the window by
// explicit [lo, hi) bounds: a slid window can never alias stale entries.
// All methods are safe for concurrent use; a training pass holds the store
// lock, so concurrent Train calls on one store serialize.
type FactorStore struct {
	mu             sync.Mutex
	driftThreshold float64
	refreshEvery   int

	db     *telemetry.DB
	g      *graph.Graph
	window int
	topB   int
	lambda float64
	lo, hi int
	// idx lays out g's series; series and entries are indexed by its
	// slots. Both are empty while the store holds no state; otherwise both
	// span every slot, and a nil element (only after adopting a snapshot
	// that lacks it) is read or fitted by the next pass.
	idx     *seriesIndex
	series  []*seriesState
	entries []*storeEntry
	pending *factorStoreJSON // decoded snapshot awaiting adoption

	hits, refits, reselects, driftTrips, slideCount, resets uint64
	exactRanks, gramDots                                    uint64
}

// NewFactorStore returns an empty incremental factor store with the default
// drift threshold and refresh interval.
func NewFactorStore() *FactorStore {
	return &FactorStore{
		driftThreshold: DefaultDriftThreshold,
		refreshEvery:   DefaultRefreshEvery,
	}
}

// SetPolicy overrides the retrain guards: driftThreshold is the MASE score
// above which a factor is refit (<= 0 keeps the current value), refreshEvery
// the slide budget before a forced re-anchor (<= 0 keeps the current value).
func (s *FactorStore) SetPolicy(driftThreshold float64, refreshEvery int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if driftThreshold > 0 {
		s.driftThreshold = driftThreshold
	}
	if refreshEvery > 0 {
		s.refreshEvery = refreshEvery
	}
}

// FactorStoreStats reports the incremental trainer's effectiveness counters.
type FactorStoreStats struct {
	// Hits counts factors served from slid sufficient statistics; Refits
	// counts factors that took the full refit path (initial anchors
	// included); DriftTrips is the subset of refits forced by the MASE drift
	// score; Slides counts window slides applied to the statistics; Resets
	// counts whole-store invalidations (database/hyperparameter changes,
	// out-of-order windows, failed passes); Reselects is the subset of hits
	// that adopted a changed feature selection in place.
	Hits, Refits, Reselects, DriftTrips, Slides, Resets uint64
	// ExactRanks counts the candidate |Pearson| values hits computed over
	// the full window to certify a ranking the slid values could not prove
	// (only tied candidates reaching into the top B); GramDots counts the
	// Gram entries reselects recomputed, one length-W dot product each (the
	// pairs with a newly selected feature).
	ExactRanks, GramDots uint64
	// Factors and Series are the current state sizes.
	Factors, Series int
	// DriftThreshold and RefreshEvery echo the active retrain policy.
	DriftThreshold float64
	RefreshEvery   int
}

// Stats returns a snapshot of the store's counters.
func (s *FactorStore) Stats() FactorStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FactorStoreStats{
		Hits: s.hits, Refits: s.refits, Reselects: s.reselects,
		DriftTrips: s.driftTrips,
		Slides:     s.slideCount, Resets: s.resets,
		ExactRanks: s.exactRanks, GramDots: s.gramDots,
		Factors: countLive(s.entries), Series: countLive(s.series),
		DriftThreshold: s.driftThreshold, RefreshEvery: s.refreshEvery,
	}
}

// countLive counts the non-nil elements of a slot-indexed slice.
func countLive[T any](xs []*T) int {
	n := 0
	for _, x := range xs {
		if x != nil {
			n++
		}
	}
	return n
}

// FactorHealth is the residual health of one trained factor, keyed by the
// target metric. The daemon's per-entity performance endpoint serves it so an
// operator can see whether the model behind a diagnosis is fresh or drifting.
type FactorHealth struct {
	// Metric is the factor's target metric on the queried entity.
	Metric string
	// Trained reports whether a fitted factor is live for the metric.
	Trained bool
	// Features is the number of selected regression features.
	Features int
	// Slides counts window slides absorbed since the factor's statistics
	// were last anchored by a full refit.
	Slides int
	// DriftScore is the MASE of the factor's one-step-ahead predictions
	// against the naive forecast of the current window — 0 while fewer than
	// the evidence minimum pairs are recorded. DriftThreshold is the score
	// above which the next training pass forces a refit.
	DriftScore     float64
	DriftThreshold float64
}

// EntityHealth reports the residual health of every factor the store holds
// for one entity, sorted by metric name. Nil when the store has not trained
// the entity yet.
func (s *FactorStore) EntityHealth(id telemetry.EntityID) []FactorHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return nil
	}
	var out []FactorHealth
	lo, hi := s.idx.nodeSlots(id)
	for slot := lo; slot < hi; slot++ {
		e := s.entries[slot]
		if e == nil {
			continue
		}
		h := FactorHealth{
			Metric:         s.idx.refs[slot].metric,
			Trained:        e.f != nil,
			Features:       len(e.feats),
			Slides:         e.slides,
			DriftThreshold: s.driftThreshold,
		}
		if sty := s.series[slot]; sty != nil && e.drift != nil {
			h.DriftScore = e.drift.Score(sty.win, driftMinPairs)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// Reset discards all incremental state (the next train re-anchors from
// scratch). Counters and policy survive.
func (s *FactorStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetLocked(nil, nil, 0, 0, 0)
}

func (s *FactorStore) resetLocked(db *telemetry.DB, g *graph.Graph, window, topB int, lambda float64) {
	if g != s.g {
		s.idx = nil
	}
	s.db, s.g = db, g
	s.window, s.topB, s.lambda = window, topB, lambda
	s.lo, s.hi = 0, 0
	s.series, s.entries = nil, nil
}

// trainPass is the state one training pass shares across its factor jobs:
// the series index, the window move, the regression trainer, and the
// full-window precomputations — centered views (for the exact |Pearson|
// ranking) and shift-subtracted columns (for anchoring the slid statistics
// and the Gram entries of newly selected features), built lazily under a
// mutex because the factor phase runs pooled. Both caches are slot-indexed
// and allocated on first use, so a pass that needs neither pays nothing.
type trainPass struct {
	cfg       Config
	trainer   regress.Trainer
	idx       *seriesIndex
	hi        int // window end
	drop, add int // slices leaving / entering the window

	mu      sync.Mutex
	store   *FactorStore
	ctr     []*stats.Centered
	shifted [][]float64
}

func (p *trainPass) centered(slot int32) *stats.Centered {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctr == nil {
		p.ctr = make([]*stats.Centered, len(p.idx.refs))
	}
	if c := p.ctr[slot]; c != nil {
		return c
	}
	c := stats.Center(p.store.series[slot].win)
	p.ctr[slot] = &c
	return &c
}

func (p *trainPass) shiftedCol(slot int32) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shifted == nil {
		p.shifted = make([][]float64, len(p.idx.refs))
	}
	if c := p.shifted[slot]; c != nil {
		return c
	}
	st := p.store.series[slot]
	c := make([]float64, len(st.win))
	for i, v := range st.win {
		c[i] = v - st.mom.Shift
	}
	p.shifted[slot] = c
	return c
}

// incJob is one factor's unit of work in the training pass.
type incJob struct {
	slot      int32
	cand      []int32 // the entity's candidate slots (the index's list)
	entry     *storeEntry
	out       *factor
	hit       bool
	refit     bool
	reselect  bool
	driftTrip bool
	// exactRanks / gramDots count the full-window work of the slid path:
	// exact |Pearson| values and recomputed Gram entries.
	exactRanks, gramDots int
}

// rankTopB orders the candidates by descending |correlation| rs, breaking
// ties by candidate key, and selects the top b with a non-zero correlation
// (the one-in-ten rule, §4.2). order is the full ranking; sel holds the
// selected candidates' indices in ranked order. keys is the index's
// slot-indexed key table.
func rankTopB(cand []int32, keys []string, rs []float64, b int) (sel, order []int) {
	order = make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sortRanked(order, cand, keys, rs)
	return topB(rs, order, b), order
}

// sortRanked sorts candidate indices by descending rs, ties by key.
func sortRanked(idx []int, cand []int32, keys []string, rs []float64) {
	sort.Slice(idx, func(a, c int) bool {
		ia, ic := idx[a], idx[c]
		if rs[ia] != rs[ic] {
			return rs[ia] > rs[ic]
		}
		return keys[cand[ia]] < keys[cand[ic]]
	})
}

// topB keeps the first b ranked candidates with a non-zero correlation.
func topB(rs []float64, order []int, b int) []int {
	b = min(b, len(order))
	sel := make([]int, 0, b)
	for _, i := range order[:b] {
		if rs[i] > 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// readWindow reads one raw training window through src. A context abort
// fails training; any other read error (already past the source's own
// retries) or a short read degrades the series to all-missing, which the
// placeholder rule absorbs exactly like never-observed history, and is
// recorded on the model.
func readWindow(ctx context.Context, src telemetry.Source, m *Model, ref metricRef, rec *obs.Recorder) ([]float64, error) {
	n := m.trainHi - m.trainLo
	w, err := src.ReadRawWindow(ctx, ref.entity, ref.metric, m.trainLo, m.trainHi)
	if err == nil && len(w) == n {
		return w, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: training cancelled: %w", cerr)
	}
	if err == nil {
		err = fmt.Errorf("core: short read (%d of %d slices)", len(w), n)
	}
	m.readFailures = append(m.readFailures, ReadFailure{Entity: ref.entity, Metric: ref.metric, Err: err})
	rec.Add(obs.CtrReadFailures, 1)
	w = make([]float64, n)
	for i := range w {
		w[i] = math.NaN()
	}
	return w, nil
}

// train is the training pass: it fills the prepared Model shell from the
// store's statistics, sliding them when the window advanced and refitting
// only where a guard trips (a fresh store refits every factor). The caller
// (TrainOpt) has already validated the window and set m's bounds.
func (s *FactorStore) train(ctx context.Context, m *Model, opts TrainOpts, rec *obs.Recorder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.trainLocked(ctx, m, opts, rec)
	if err != nil && s.db != nil {
		// A pass that failed midway may have slid some series and entries
		// but not the window bounds: void the state so the next pass
		// re-anchors instead of sliding them twice.
		s.resets++
		s.resetLocked(s.db, s.g, s.window, s.topB, s.lambda)
	}
	return err
}

func (s *FactorStore) trainLocked(ctx context.Context, m *Model, opts TrainOpts, rec *obs.Recorder) error {
	db, g, cfg := m.db, m.g, m.cfg
	lo, hi := m.trainLo, m.trainHi

	// Bind to (database, graph, hyperparameters); any change voids the
	// state. The window bounds are explicit in every entry's validity (the
	// statistics are *defined* over [lo, hi)), so a slid window can never
	// alias a stale entry — it either slides the statistics or resets.
	if s.db != db || s.g != g || s.window != cfg.TrainWindow || s.topB != cfg.TopB || s.lambda != cfg.Lambda {
		if s.db != nil && len(s.series) > 0 {
			s.resets++
		}
		s.resetLocked(db, g, cfg.TrainWindow, cfg.TopB, cfg.Lambda)
	}

	// Phase 1: list every node's metrics and read (or slide) every series'
	// state. Reads are serial and in graph order: sources may be stateful
	// (fault injectors, rate-limited collectors) and the order of recorded
	// read failures is part of the model's contract. Only a fresh store sees
	// an interposed source, so slides read the database directly.
	var src telemetry.Source = db
	if opts.Src != nil {
		src = opts.Src
	}
	ids := g.IDs()
	names := make([][]string, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: training cancelled: %w", err)
		}
		names[i] = src.MetricNames(id)
	}
	if s.idx == nil || !s.idx.sameNames(names) {
		s.reindexLocked(newSeriesIndex(g, names))
	}
	idx := s.idx
	m.idx = idx
	if s.pending != nil {
		s.adoptLocked(db, cfg)
	}
	if len(s.series) > 0 {
		drop, add := lo-s.lo, hi-s.hi
		if add < 0 || drop < 0 || drop > s.hi-s.lo || add > cfg.TrainWindow/2 {
			// Backwards or far-forward jump: re-anchoring is cheaper (or the
			// only correct option).
			s.resets++
			s.resetLocked(db, g, cfg.TrainWindow, cfg.TopB, cfg.Lambda)
		}
	}
	if len(s.series) == 0 {
		s.lo, s.hi = lo, hi
		s.series = make([]*seriesState, len(idx.refs))
		s.entries = make([]*storeEntry, len(idx.refs))
	}
	drop, add := lo-s.lo, hi-s.hi
	var fresh []int32
	var raws [][]float64
	for slot, st := range s.series {
		ref := idx.refs[slot]
		switch {
		case st == nil:
			raw, err := readWindow(ctx, src, m, ref, rec)
			if err != nil {
				return err
			}
			fresh = append(fresh, int32(slot))
			raws = append(raws, raw)
		case add != 0 || drop != 0:
			s.slideSeries(st, ref, lo, hi, drop, add)
		}
	}
	// A new series' state (placeholder fill, moments, sorted copy) is pure
	// in its window, so building it fans out across the pool.
	if err := forEachIndex(ctx, opts.Workers, len(fresh), func(i int) error {
		s.series[fresh[i]] = newSeriesState(raws[i], lo)
		return nil
	}); err != nil {
		return fmt.Errorf("core: training cancelled: %w", err)
	}
	if add > 0 {
		s.slideCount += uint64(add)
		rec.Add(obs.CtrIncTrainSlides, int64(add))
	}

	// Phase 2: one factor job per slot, each with its entity's candidate
	// list from the index; every job gets an entry before the pooled phase
	// mutates them.
	jobs := make([]incJob, len(idx.refs))
	for i := range ids {
		for slot := idx.first[i]; slot < idx.first[i+1]; slot++ {
			e := s.entries[slot]
			if e == nil {
				e = &storeEntry{drift: stats.NewDriftTracker(driftWindow)}
				s.entries[slot] = e
			}
			jobs[slot] = incJob{slot: slot, cand: idx.cand[i], entry: e}
		}
	}

	// Phase 3: per-factor pooled pass — slide the entry's statistics, run
	// the guards, and either derive the factor from the statistics (hit) or
	// fall back to the full refit. Each job writes only its own entry and
	// slot, so the trained model is bit-identical whatever the pool size.
	trainer := opts.Trainer
	if trainer == nil {
		trainer = regress.RidgeTrainer(cfg.Lambda)
	}
	p := &trainPass{cfg: cfg, trainer: trainer, idx: idx, hi: hi, drop: drop, add: add, store: s}
	pooled := opts.Workers > 1 && len(jobs) > 1
	err := forEachIndex(ctx, opts.Workers, len(jobs), func(i int) error {
		return s.runJob(&jobs[i], p)
	})
	if err == nil {
		// The pool checks the context before each job only: a cancellation
		// that lands during the last jobs must still fail the pass.
		err = ctx.Err()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("core: training cancelled: %w", err)
		}
		return err
	}

	// Phase 4: recenter drifted series and apply the exact closed-form
	// correction to every entry's statistics. All corrections are computed
	// against the pre-recenter S1 values, then the moments re-anchor.
	s.recenterLocked(hi - lo)

	var hits, refits, reselects, trips int64
	m.factors = make([]*factor, len(jobs))
	for i := range jobs {
		job := &jobs[i]
		m.factors[i] = job.out
		s.exactRanks += uint64(job.exactRanks)
		s.gramDots += uint64(job.gramDots)
		switch {
		case job.hit:
			hits++
			if job.reselect {
				reselects++
			}
		case job.refit:
			refits++
		}
		if job.driftTrip {
			trips++
		}
	}
	m.current = make([]float64, len(s.series))
	for slot, st := range s.series {
		m.current[slot] = st.win[len(st.win)-1]
	}
	s.lo, s.hi = lo, hi
	s.hits += uint64(hits)
	s.refits += uint64(refits)
	s.reselects += uint64(reselects)
	s.driftTrips += uint64(trips)
	rec.Add(obs.CtrIncTrainHits, hits)
	rec.Add(obs.CtrIncTrainReselects, reselects)
	rec.Add(obs.CtrIncTrainDriftTrips, trips)
	rec.Add(obs.CtrFactorsTrained, refits)
	if pooled {
		rec.Add(obs.CtrTrainParallelFits, refits)
	}
	return nil
}

// reindexLocked moves the store onto a new series index of the same graph,
// built because the graph's metric names changed. Every surviving series
// keeps its state at its new slot, and so does every entry whose candidate
// list is unchanged, its feature slots and factor remapped (models trained
// earlier keep the old index and the old factor). An entry whose candidate
// list changed is dropped, so the pass refits it; a vanished series or
// entry is dropped with its slot.
func (s *FactorStore) reindexLocked(nx *seriesIndex) {
	old := s.idx
	s.idx = nx
	if len(s.series) == 0 {
		return
	}
	series := make([]*seriesState, len(nx.refs))
	entries := make([]*storeEntry, len(nx.refs))
	for i := range nx.cand {
		sameCand := slices.EqualFunc(old.cand[i], nx.cand[i], func(a, b int32) bool {
			return old.refs[a] == nx.refs[b]
		})
		for slot := nx.first[i]; slot < nx.first[i+1]; slot++ {
			os, ok := old.slotOf[nx.refs[slot]]
			if !ok {
				continue
			}
			series[slot] = s.series[os]
			e := s.entries[os]
			if e == nil || !sameCand {
				continue
			}
			e.cand = nx.cand[i]
			if len(e.feats) > 0 {
				feats := make([]int32, len(e.feats))
				for j, fs := range e.feats {
					feats[j] = nx.slotOf[old.refs[fs]]
				}
				e.feats = feats
			}
			if e.f != nil {
				f := *e.f
				f.features = e.feats
				e.f = &f
			}
			entries[slot] = e
		}
	}
	s.series, s.entries = series, entries
}

// slideSeries advances one series' state from [s.lo, s.hi) to [lo, hi) and
// records its shifted entering and expired rows, which every factor reading
// the series updates and downdates against. A series with in-window missing
// values is rebuilt instead (its placeholder fill depends on the window
// content), which bumps its epoch and invalidates dependent factor
// statistics.
func (s *FactorStore) slideSeries(st *seriesState, ref metricRef, lo, hi, drop, add int) {
	enter := s.db.RawWindow(ref.entity, ref.metric, s.hi, hi)
	// Expire bookkeeping for missing values that left the window.
	for len(st.nanAt) > 0 && st.nanAt[0] < lo {
		st.nanAt = st.nanAt[1:]
	}
	dirty := len(st.nanAt) > 0
	for i, v := range enter {
		if v != v {
			st.nanAt = append(st.nanAt, s.hi+i)
			dirty = true
		}
	}
	if dirty {
		oldEpoch := st.epoch
		*st = *newSeriesState(s.db.RawWindow(ref.entity, ref.metric, lo, hi), lo)
		st.epoch = oldEpoch + 1
		return
	}
	sh := st.mom.Shift
	st.leave = st.leave[:0]
	for _, u := range st.win[:drop] {
		st.leave = append(st.leave, u-sh)
		st.mom.Pop(u)
		st.sorted.Remove(u)
	}
	st.enter = st.enter[:0]
	for _, v := range enter {
		st.enter = append(st.enter, v-sh)
		st.mom.Push(v)
		st.sorted.Insert(v)
	}
	st.win = append(st.win[:0], st.win[drop:]...)
	st.win = append(st.win, enter...)
}

// runJob processes one factor: guards, statistic slides, and either the
// statistics-derived solve or the full refit.
func (s *FactorStore) runJob(job *incJob, p *trainPass) error {
	e, sty := job.entry, s.series[job.slot]

	needRefit := false
	trip := false
	switch {
	case e.f == nil || e.fittedHi == 0:
		needRefit = true // fresh (or never-anchored) entry
	case !slices.Equal(e.cand, job.cand):
		needRefit = true // candidate set changed (metrics appeared/vanished)
	case sty.epoch != e.targetEpoch:
		needRefit = true // target rebuilt (missing values in window)
	default:
		for j, fs := range e.feats {
			if s.series[fs].epoch != e.featEpochs[j] {
				needRefit = true
				break
			}
		}
	}

	moved := p.add > 0 || p.drop > 0
	if !needRefit && moved {
		s.slideEntry(e, job, sty, p)
		e.slides += p.add
		if e.slides >= s.refreshEvery {
			needRefit = true // scheduled re-anchor bounds accumulated rounding
		} else if score := e.drift.Score(sty.win, driftMinPairs); score > s.driftThreshold {
			needRefit, trip = true, true
		}
	}

	if !needRefit && !moved && e.fittedHi == p.hi {
		// Same window as the last fit: the trained factor is exactly valid.
		job.out, job.hit = e.f, true
		return nil
	}

	if !needRefit {
		if f, ok := s.solveFromStats(e, job, sty, p); ok {
			e.f, e.fittedHi = f, p.hi
			job.out, job.hit = f, true
			return nil
		}
		needRefit = true // selection margin / selection change / conditioning
	}

	f, err := s.refitEntry(e, job, sty, p)
	if err != nil {
		return err
	}
	job.out, job.refit, job.driftTrip = f, true, trip
	return nil
}

// slideEntry applies the entering/expired rows to the entry's sufficient
// statistics as blocked rank-1 corrections, refreshes stale candidate cross
// terms, and records the one-step-ahead drift evidence. The rows are the
// shifted slide vectors slideSeries shares across every factor reading a
// series.
func (s *FactorStore) slideEntry(e *storeEntry, job *incJob, sty *seriesState, p *trainPass) {
	n, add := len(sty.win), p.add
	enterY, leaveY := sty.enter, sty.leave

	if nb := len(e.feats); nb > 0 {
		enterCols := make([][]float64, nb)
		leaveCols := make([][]float64, nb)
		for j, fs := range e.feats {
			enterCols[j], leaveCols[j] = s.series[fs].enter, s.series[fs].leave
		}
		mat.GramColsUpdate(e.gram, enterCols)
		mat.GramColsDowndate(e.gram, leaveCols)
		mat.CrossColsUpdate(e.xty, enterCols, enterY)
		mat.CrossColsDowndate(e.xty, leaveCols, leaveY)
	}

	for ci, c := range job.cand {
		cst := s.series[c]
		if cst.epoch != e.candEpochs[ci] {
			// Candidate rebuilt since its cross term was accumulated:
			// recompute it over the current window.
			shC, shY := cst.mom.Shift, sty.mom.Shift
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += (cst.win[i] - shC) * (sty.win[i] - shY)
			}
			e.cross[ci] = sum
			e.candEpochs[ci] = cst.epoch
			continue
		}
		sum := e.cross[ci]
		for i, v := range cst.enter {
			sum += v * enterY[i]
		}
		for i, u := range cst.leave {
			sum -= u * leaveY[i]
		}
		e.cross[ci] = sum
	}

	// Drift evidence: how well does the stale model predict the points that
	// just entered the window?
	if e.f != nil && e.f.model != nil {
		x := make([]float64, len(e.feats))
		for i := 0; i < add; i++ {
			t := n - add + i
			for j, fs := range e.feats {
				x[j] = s.series[fs].win[t]
			}
			e.drift.Push(e.f.model.Predict(x), sty.win[t])
		}
	}
}

// solveFromStats ranks the candidates from the slid moments, certifies the
// selection against the exact ranking (certifyRanking), adopts a changed
// selection in place, and derives the ridge fit from the sufficient
// statistics: an O(C + B³) path, plus O(n) per tied candidate, replacing the
// O(n·C + n·B²) full recomputation. ok is false when a guard trips.
func (s *FactorStore) solveFromStats(e *storeEntry, job *incJob, sty *seriesState, p *trainPass) (*factor, bool) {
	cfg := p.cfg
	n := len(sty.win)
	momY := &sty.mom
	s1y := momY.S1
	cssY := momY.CenteredSumSq()
	nf := float64(n)

	rs := make([]float64, len(job.cand))
	for i, c := range job.cand {
		cst := s.series[c]
		num := e.cross[i] - cst.mom.S1*s1y/nf
		den := math.Sqrt(cst.mom.CenteredSumSq() * cssY)
		r := 0.0
		if den > 0 {
			r = math.Abs(num / den)
			if math.IsNaN(r) {
				r = 0
			}
		}
		rs[i] = r
	}
	sel, order := rankTopB(job.cand, p.idx.keys, rs, cfg.TopB)
	if job.exactRanks = s.certifyRanking(job, p, rs, order); job.exactRanks > 0 {
		sel = topB(rs, order, cfg.TopB)
	}
	if !sameSelection(sel, job.cand, e.feats) {
		// The selection changed. The slid cross accumulators already hold
		// X'y against the current shifts for every candidate, so adopt the
		// new selection in place and fall through to the closed-form solve.
		if !s.reselectEntry(e, job, sel, p) {
			return nil, false
		}
		job.reselect = true
	}

	nb := len(e.feats)
	st := regress.RidgeState{Lambda: cfg.Lambda, Fitted: true}
	if nb == 0 {
		st.Intercept = momY.Mean()
		st.Resid = momY.Std()
	} else {
		featMean := make([]float64, nb)
		featStd := make([]float64, nb)
		s1 := make([]float64, nb)
		for j, fs := range e.feats {
			fm := &s.series[fs].mom
			featMean[j] = fm.Mean()
			sd := fm.Std()
			if sd == 0 || math.IsNaN(sd) {
				sd = 1
			}
			featStd[j] = sd
			s1[j] = fm.S1
		}
		zg := mat.NewDense(nb, nb)
		for j := 0; j < nb; j++ {
			for k := j; k < nb; k++ {
				cg := e.gram.At(j, k) - s1[j]*s1[k]/nf
				v := cg / (featStd[j] * featStd[k])
				zg.Set(j, k, v)
				zg.Set(k, j, v)
			}
		}
		rhs := make([]float64, nb)
		for j := 0; j < nb; j++ {
			rhs[j] = (e.xty[j] - s1[j]*s1y/nf) / featStd[j]
		}
		ridged := zg.Clone().AddDiag(cfg.Lambda + 1e-10)
		coef, err := mat.CholeskySolve(ridged, rhs)
		if err != nil {
			coef, err = mat.Solve(ridged, rhs)
		}
		if err != nil {
			return nil, false // conditioning: let the full path decide
		}
		// Residual sum of squares from the statistics:
		// ss = Σ(y−ŷ)² = CSS_y − 2 c·rhs + cᵀ ZG c (ZG without the ridge).
		quad := 0.0
		for j := 0; j < nb; j++ {
			row := 0.0
			for k := 0; k < nb; k++ {
				row += zg.At(j, k) * coef[k]
			}
			quad += coef[j] * row
		}
		ss := cssY - 2*mat.Dot(coef, rhs) + quad
		if ss < -1e-6*(cssY+1) {
			return nil, false // cancellation exceeded the trust budget
		}
		if ss < 0 {
			ss = 0
		}
		resid := math.Sqrt(ss / nf)
		if math.IsNaN(resid) || math.IsInf(resid, 0) {
			resid = 0
		}
		st.Coef = coef
		st.FeatMean = featMean
		st.FeatStd = featStd
		st.Intercept = momY.Mean()
		st.Resid = resid
	}

	med, madScale, novel := sty.targetStats()
	f := &factor{
		features: e.feats,
		model:    regress.NewRidgeFromState(st),
		hmean:    momY.Mean(),
		med:      med,
		madScale: madScale,
		novel:    novel,
	}
	if n >= 2 {
		f.hstd = momY.Std()
	}
	f.rscore = f.robustScoreAt(sty.win[n-1])
	return f, true
}

// certifyRanking makes the slid ranking agree with the exact one wherever
// the selection depends on it, and returns how many exact values it
// computed. The slid correlations differ from the exact centered |Pearson|
// by rounding only, far less than half of selectionMarginEps (the premise
// the margin guard rests on), so two candidates whose slid values are at
// least the margin apart keep their order under the exact ranking. The slid
// order therefore splits into runs of adjacent candidates closer than the
// margin, and only a run holding a selected candidate (top B, non-zero) can
// change the selected features or their order: its members get the exact
// value and are re-sorted among themselves, which is how rankExact orders
// them. A run reaching below the margin takes in every near-zero candidate,
// whose exact value decides whether it is selected at all. Every other
// candidate is certified by its slid value.
func (s *FactorStore) certifyRanking(job *incJob, p *trainPass, rs []float64, order []int) int {
	b := min(p.cfg.TopB, len(order))
	var yctr *stats.Centered
	exact := 0
	for i := 0; i < b && rs[order[i]] > 0; {
		j := i + 1
		for j < len(order) && rs[order[j-1]]-rs[order[j]] < selectionMarginEps {
			j++
		}
		if run := order[i:j]; len(run) > 1 || rs[run[0]] < selectionMarginEps {
			if yctr == nil {
				yctr = p.centered(job.slot)
			}
			for _, c := range run {
				rs[c] = stats.AbsPearsonCentered(p.centered(job.cand[c]), yctr)
			}
			sortRanked(run, job.cand, p.idx.keys, rs)
			exact += len(run)
		}
		i = j
	}
	return exact
}

// reselectEntry adopts a changed feature selection without a full refit:
// xty comes from the candidate cross accumulators (already slid against the
// current shifts), every pair of retained features carries its slid Gram
// entry over into the new order, and only the pairs involving a newly
// selected feature are computed, one length-W dot product of shifted
// columns each — an order-only reselect is an O(B²) permutation. Returns
// false — forcing the full refit — when any new feature's cross term is
// stale (epoch moved since it was accumulated; slideEntry refreshes those,
// so this is a safety net).
func (s *FactorStore) reselectEntry(e *storeEntry, job *incJob, sel []int, p *trainPass) bool {
	nb := len(sel)
	feats := make([]int32, nb)
	xty := make([]float64, nb)
	epochs := make([]uint32, nb)
	prev := make([]int, nb) // position in the old selection; -1 if new
	for j, ci := range sel {
		fs := job.cand[ci]
		if s.series[fs].epoch != e.candEpochs[ci] {
			return false
		}
		feats[j] = fs
		xty[j] = e.cross[ci]
		epochs[j] = s.series[fs].epoch
		prev[j] = slices.Index(e.feats, fs)
	}
	var gram *mat.Dense
	if nb > 0 {
		gram = mat.NewDense(nb, nb)
		for j := 0; j < nb; j++ {
			for k := j; k < nb; k++ {
				var v float64
				if prev[j] >= 0 && prev[k] >= 0 {
					v = e.gram.At(prev[j], prev[k])
				} else {
					v = mat.Dot(p.shiftedCol(feats[j]), p.shiftedCol(feats[k]))
					job.gramDots++
				}
				gram.Set(j, k, v)
				gram.Set(k, j, v)
			}
		}
	}
	e.feats = feats
	e.featEpochs = epochs
	e.xty = xty
	e.gram = gram
	return true
}

// rankExact is the full fit's feature selection: rank the candidates by
// centered |Pearson| with the target over the window and keep the top B.
// The centered columns come from the pass-shared cache, so the per-entry
// cost is one length-n dot product per candidate.
func (s *FactorStore) rankExact(job *incJob, p *trainPass) []int {
	yctr := p.centered(job.slot)
	rs := make([]float64, len(job.cand))
	for i, c := range job.cand {
		rs[i] = stats.AbsPearsonCentered(p.centered(c), yctr)
	}
	sel, _ := rankTopB(job.cand, p.idx.keys, rs, p.cfg.TopB)
	return sel
}

// sameSelection reports whether the selected candidate positions sel name
// the feature slots feats, in order.
func sameSelection(sel []int, cand, feats []int32) bool {
	return slices.EqualFunc(sel, feats, func(ci int, fs int32) bool { return cand[ci] == fs })
}

// refitEntry is the full fit of one factor — exact ranking, then the pass's
// regression trainer over the whole window — plus a fresh anchor of the
// entry's sufficient statistics against the current shifts.
func (s *FactorStore) refitEntry(e *storeEntry, job *incJob, sty *seriesState, p *trainPass) (*factor, error) {
	n := len(sty.win)
	yctr := p.centered(job.slot)
	// The historical mean/std come from the centered view; the sum of
	// squares was accumulated in MeanStd's order, so the bits match.
	f := &factor{hmean: yctr.Mean}
	if n >= 2 {
		f.hstd = math.Sqrt(yctr.SumSq / float64(n-1))
	}
	f.med, f.madScale, f.novel = sty.targetStats()
	f.rscore = f.robustScoreAt(sty.win[n-1])

	sel := s.rankExact(job, p)
	feats := make([]int32, len(sel))
	featCols := make([][]float64, len(sel))
	for j, ci := range sel {
		feats[j] = job.cand[ci]
		featCols[j] = s.series[feats[j]].win
	}
	f.features = feats
	// The training windows already are the design matrix's columns: a
	// trainer with the column fast path (the default ridge) consumes them
	// directly; others get the row-major assembly.
	model := p.trainer()
	var err error
	if cf, ok := model.(regress.ColumnsFitter); ok {
		err = cf.FitColumns(featCols, sty.win)
	} else {
		x := make([][]float64, n)
		for t := range x {
			row := make([]float64, len(feats))
			for j := range feats {
				row[j] = featCols[j][t]
			}
			x[t] = row
		}
		err = model.Fit(x, sty.win)
	}
	if err != nil {
		return nil, fmt.Errorf("core: fit factor %s: %w", p.idx.keys[job.slot], err)
	}
	f.model = model

	// Anchor the slid statistics against the current shifts.
	shiftedY := p.shiftedCol(job.slot)
	e.feats = feats
	e.cand = job.cand
	e.targetEpoch = sty.epoch
	e.featEpochs = make([]uint32, len(feats))
	if len(feats) > 0 {
		shiftedCols := make([][]float64, len(feats))
		for j, fs := range feats {
			shiftedCols[j] = p.shiftedCol(fs)
			e.featEpochs[j] = s.series[fs].epoch
		}
		e.gram = mat.GramCols(shiftedCols)
		e.xty = mat.MulVecCols(shiftedCols, shiftedY)
	} else {
		e.gram, e.xty = nil, nil
	}
	e.cross = make([]float64, len(job.cand))
	e.candEpochs = make([]uint32, len(job.cand))
	for i, c := range job.cand {
		e.cross[i] = mat.Dot(p.shiftedCol(c), shiftedY)
		e.candEpochs[i] = s.series[c].epoch
	}
	e.slides = 0
	e.drift.Reset()
	e.f, e.fittedHi = f, p.hi
	return f, nil
}

// recenterLocked re-anchors every series whose mean drifted more than
// recenterFrac standard deviations from its shift, applying the exact
// closed-form correction to every entry's Gram/cross statistics:
//
//	Σ(x_j−sh_j−d_j)(x_k−sh_k−d_k) = G_jk − d_j·S1_k − d_k·S1_j + N·d_j·d_k
//
// with all S1 values read before any moment is mutated (d is zero for series
// that keep their anchor), so the algebra is exact regardless of how many
// series recenter at once.
func (s *FactorStore) recenterLocked(n int) {
	var deltas []float64 // by slot; nil while no series recenters
	for slot, st := range s.series {
		d := st.mom.S1 / float64(st.mom.N)
		sd := st.mom.Std()
		if st.mom.N == 0 || d == 0 {
			continue
		}
		if (sd > 0 && math.Abs(d) > recenterFrac*sd) || sd == 0 {
			if deltas == nil {
				deltas = make([]float64, len(s.series))
			}
			deltas[slot] = d
		}
	}
	if deltas == nil {
		return
	}
	nf := float64(n)
	for slot, e := range s.entries {
		if e.f == nil || e.fittedHi == 0 {
			continue
		}
		dy := deltas[slot]
		s1y := s.series[slot].mom.S1
		touched := dy != 0
		if !touched {
			for _, fs := range e.feats {
				if deltas[fs] != 0 {
					touched = true
					break
				}
			}
		}
		if touched && len(e.feats) > 0 {
			dj := make([]float64, len(e.feats))
			s1j := make([]float64, len(e.feats))
			for j, fs := range e.feats {
				dj[j] = deltas[fs]
				s1j[j] = s.series[fs].mom.S1
			}
			for j := 0; j < len(e.feats); j++ {
				for k := j; k < len(e.feats); k++ {
					if dj[j] == 0 && dj[k] == 0 {
						continue
					}
					v := e.gram.At(j, k) - dj[j]*s1j[k] - dj[k]*s1j[j] + nf*dj[j]*dj[k]
					e.gram.Set(j, k, v)
					e.gram.Set(k, j, v)
				}
			}
			for j := 0; j < len(e.feats); j++ {
				if dj[j] == 0 && dy == 0 {
					continue
				}
				e.xty[j] += -dj[j]*s1y - dy*s1j[j] + nf*dj[j]*dy
			}
		}
		for ci, c := range e.cand {
			dc := deltas[c]
			if dc == 0 && dy == 0 {
				continue
			}
			e.cross[ci] += -dc*s1y - dy*s.series[c].mom.S1 + nf*dc*dy
		}
	}
	for slot, d := range deltas {
		if d != 0 {
			s.series[slot].mom.Recenter()
		}
	}
}

// ---------------------------------------------------------------------------
// Persistence: the store serializes to a compact JSON snapshot so a murphyd
// warm restart resumes sliding where the previous process stopped instead of
// paying a full retrain. Windows cannot be persisted (the restored process
// re-reads them from the recovered database), so each series carries bitwise
// fingerprints of its window endpoints plus its missing-value positions; a
// snapshot only adopts against a database that reproduces them exactly.
// ---------------------------------------------------------------------------

// factorStoreRefJSON names one (entity, metric) pair in a snapshot.
type factorStoreRefJSON struct {
	Entity string `json:"entity"`
	Metric string `json:"metric"`
}

func refToJSON(r metricRef) factorStoreRefJSON {
	return factorStoreRefJSON{Entity: string(r.entity), Metric: r.metric}
}

func refFromJSON(j factorStoreRefJSON) metricRef {
	return metricRef{telemetry.EntityID(j.Entity), j.Metric}
}

type factorStoreSeriesJSON struct {
	factorStoreRefJSON
	Shift float64 `json:"shift"`
	S1    float64 `json:"s1"`
	S2    float64 `json:"s2"`
	NanAt []int   `json:"nan_at,omitempty"`
	Epoch uint32  `json:"epoch"`
	// First/Last are bitwise fingerprints of the placeholder-filled window's
	// endpoints; adoption rebuilds the window from the database and requires
	// exact equality.
	First float64 `json:"first"`
	Last  float64 `json:"last"`
}

type factorStoreEntryJSON struct {
	factorStoreRefJSON
	Feats       []factorStoreRefJSON `json:"feats,omitempty"`
	TargetEpoch uint32               `json:"target_epoch"`
	FeatEpochs  []uint32             `json:"feat_epochs,omitempty"`
	Gram        []float64            `json:"gram,omitempty"`
	Xty         []float64            `json:"xty,omitempty"`
	Cross       []float64            `json:"cross,omitempty"`
	CandEpochs  []uint32             `json:"cand_epochs,omitempty"`
	// CandHash fingerprints the candidate list the cross statistics align
	// with; adoption re-derives the list from the graph and database and
	// requires the hash to match.
	CandHash     uint64             `json:"cand_hash"`
	Slides       int                `json:"slides"`
	FittedHi     int                `json:"fitted_hi"`
	DriftPreds   []float64          `json:"drift_preds,omitempty"`
	DriftActuals []float64          `json:"drift_actuals,omitempty"`
	Model        regress.RidgeState `json:"model"`
	Hmean        float64            `json:"hmean"`
	Hstd         float64            `json:"hstd"`
	Med          float64            `json:"med"`
	MadScale     float64            `json:"mad_scale"`
	Rscore       float64            `json:"rscore"`
	Novel        bool               `json:"novel,omitempty"`
}

// factorStoreJSON is the on-disk snapshot layout.
type factorStoreJSON struct {
	Version int                     `json:"version"`
	Window  int                     `json:"window"`
	TopB    int                     `json:"top_b"`
	Lambda  float64                 `json:"lambda"`
	Lo      int                     `json:"lo"`
	Hi      int                     `json:"hi"`
	Series  []factorStoreSeriesJSON `json:"series,omitempty"`
	Entries []factorStoreEntryJSON  `json:"entries,omitempty"`
}

// candListHash fingerprints a candidate list (order-sensitive) by the
// series' keys.
func candListHash(cand []int32, keys []string) uint64 {
	h := fnv.New64a()
	for _, c := range cand {
		h.Write([]byte(keys[c]))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// Snapshot serializes the store's incremental state. The snapshot is
// self-validating on restore: it embeds the hyperparameters, window bounds,
// per-series window fingerprints, and per-entry candidate-list hashes, and
// adoption discards anything the restored database does not reproduce.
func (s *FactorStore) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := factorStoreJSON{
		Version: factorStoreSnapshotVersion,
		Window:  s.window, TopB: s.topB, Lambda: s.lambda,
		Lo: s.lo, Hi: s.hi,
	}
	// Series and entries are written in key order, which keeps the bytes
	// independent of the slot layout.
	order := make([]int, len(s.series))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.idx.keys[order[a]] < s.idx.keys[order[b]] })
	for _, slot := range order {
		st := s.series[slot]
		if st == nil || len(st.win) == 0 {
			continue
		}
		p.Series = append(p.Series, factorStoreSeriesJSON{
			factorStoreRefJSON: refToJSON(s.idx.refs[slot]),
			Shift:              st.mom.Shift, S1: st.mom.S1, S2: st.mom.S2,
			NanAt: append([]int(nil), st.nanAt...),
			Epoch: st.epoch,
			First: st.win[0], Last: st.win[len(st.win)-1],
		})
	}
	for _, slot := range order {
		e := s.entries[slot]
		if e == nil || e.f == nil || e.fittedHi == 0 {
			continue // never anchored: nothing worth persisting
		}
		ridge, ok := e.f.model.(*regress.Ridge)
		if !ok {
			continue
		}
		ej := factorStoreEntryJSON{
			factorStoreRefJSON: refToJSON(s.idx.refs[slot]),
			TargetEpoch:        e.targetEpoch,
			FeatEpochs:         append([]uint32(nil), e.featEpochs...),
			Xty:                append([]float64(nil), e.xty...),
			Cross:              append([]float64(nil), e.cross...),
			CandEpochs:         append([]uint32(nil), e.candEpochs...),
			CandHash:           candListHash(e.cand, s.idx.keys),
			Slides:             e.slides,
			FittedHi:           e.fittedHi,
			Model:              ridge.State(),
			Hmean:              e.f.hmean, Hstd: e.f.hstd,
			Med: e.f.med, MadScale: e.f.madScale,
			Rscore: e.f.rscore, Novel: e.f.novel,
		}
		for _, fs := range e.feats {
			ej.Feats = append(ej.Feats, refToJSON(s.idx.refs[fs]))
		}
		if e.gram != nil {
			nb := len(e.feats)
			ej.Gram = make([]float64, 0, nb*nb)
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					ej.Gram = append(ej.Gram, e.gram.At(i, j))
				}
			}
		}
		ej.DriftPreds, ej.DriftActuals = e.drift.Pairs()
		p.Entries = append(p.Entries, ej)
	}
	return json.Marshal(p)
}

// RestoreSnapshot stages a snapshot for adoption. Nothing is validated here
// beyond the JSON shape and version: the snapshot can only be checked against
// a database and graph, which arrive with the next training pass — adoption
// happens there, silently discarding anything inconsistent (a failed warm
// restart degrades to a cold one, never to wrong factors).
func (s *FactorStore) RestoreSnapshot(data []byte) error {
	var p factorStoreJSON
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("core: factor store snapshot: %w", err)
	}
	if p.Version != factorStoreSnapshotVersion {
		return fmt.Errorf("core: factor store snapshot version %d (want %d)", p.Version, factorStoreSnapshotVersion)
	}
	s.mu.Lock()
	s.pending = &p
	s.mu.Unlock()
	return nil
}

// adoptLocked validates the staged snapshot against the bound database and
// graph and installs whatever checks out. Validation is conservative: a
// hyperparameter or window-bound mismatch discards everything; a series whose
// rebuilt window does not reproduce the persisted fingerprints discards
// everything (the statistics are only meaningful over those exact values); an
// entry whose candidate list or features no longer resolve is skipped alone
// (it refits on first use).
func (s *FactorStore) adoptLocked(db *telemetry.DB, cfg Config) {
	p := s.pending
	s.pending = nil
	if p == nil || len(s.series) > 0 {
		return // live state is fresher than any snapshot
	}
	if p.Window != cfg.TrainWindow || p.TopB != cfg.TopB || p.Lambda != cfg.Lambda {
		return
	}
	n := p.Hi - p.Lo
	if p.Lo < 0 || n < 8 || n > cfg.TrainWindow || p.Hi > db.Len() {
		return
	}
	// Every persisted series must reproduce, including any the graph no
	// longer holds; only the index's series are installed.
	x := s.idx
	series := make([]*seriesState, len(x.refs))
	for _, sj := range p.Series {
		ref := refFromJSON(sj.factorStoreRefJSON)
		st := newSeriesState(db.RawWindow(ref.entity, ref.metric, p.Lo, p.Hi), p.Lo)
		if len(st.win) != n || st.win[0] != sj.First || st.win[n-1] != sj.Last {
			return
		}
		if len(st.nanAt) != len(sj.NanAt) {
			return
		}
		for i, at := range st.nanAt {
			if at != sj.NanAt[i] {
				return
			}
		}
		// Keep the persisted shifted moments (the entry statistics are taken
		// against these shifts) and the persisted epoch counter.
		st.mom = stats.WindowMoments{Shift: sj.Shift, N: n, S1: sj.S1, S2: sj.S2}
		st.epoch = sj.Epoch
		if slot, ok := x.slotOf[ref]; ok {
			series[slot] = st
		}
	}
	if len(p.Series) == 0 {
		return
	}
	candHash := make(map[int]uint64)
	entries := make([]*storeEntry, len(x.refs))
	for i := range p.Entries {
		ej := &p.Entries[i]
		ref := refFromJSON(ej.factorStoreRefJSON)
		slot, ok := x.slotOf[ref]
		if !ok || series[slot] == nil {
			continue
		}
		node, _ := x.g.Index(ref.entity)
		cand := x.cand[node]
		h, ok := candHash[node]
		if !ok {
			h = candListHash(cand, x.keys)
			candHash[node] = h
		}
		if h != ej.CandHash || len(ej.Cross) != len(cand) || len(ej.CandEpochs) != len(cand) {
			continue
		}
		nb := len(ej.Feats)
		if len(ej.FeatEpochs) != nb || len(ej.Xty) != nb || len(ej.Gram) != nb*nb {
			continue
		}
		feats := make([]int32, nb)
		ok = true
		for j, fj := range ej.Feats {
			fs, found := x.slotOf[refFromJSON(fj)]
			if !found || series[fs] == nil || !slices.Contains(cand, fs) {
				ok = false
				break
			}
			feats[j] = fs
		}
		if !ok || len(ej.DriftPreds) != len(ej.DriftActuals) {
			continue
		}
		e := &storeEntry{
			fittedHi:    ej.FittedHi,
			feats:       feats,
			cand:        cand,
			targetEpoch: ej.TargetEpoch,
			featEpochs:  append([]uint32(nil), ej.FeatEpochs...),
			candEpochs:  append([]uint32(nil), ej.CandEpochs...),
			xty:         append([]float64(nil), ej.Xty...),
			cross:       append([]float64(nil), ej.Cross...),
			slides:      ej.Slides,
			drift:       stats.NewDriftTracker(driftWindow),
		}
		if nb > 0 {
			e.gram = mat.NewDense(nb, nb)
			for r := 0; r < nb; r++ {
				for c := 0; c < nb; c++ {
					e.gram.Set(r, c, ej.Gram[r*nb+c])
				}
			}
		}
		for j := range ej.DriftPreds {
			e.drift.Push(ej.DriftPreds[j], ej.DriftActuals[j])
		}
		e.f = &factor{
			features: feats,
			model:    regress.NewRidgeFromState(ej.Model),
			hmean:    ej.Hmean, hstd: ej.Hstd,
			med: ej.Med, madScale: ej.MadScale,
			rscore: ej.Rscore, novel: ej.Novel,
		}
		entries[slot] = e
	}
	s.series = series
	s.entries = entries
	s.lo, s.hi = p.Lo, p.Hi
}
