package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
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
	// so any gap wider than this guarantees the same top-B selection. A
	// narrower gap falls back to the full (bit-identical) ranking.
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

// seriesState is the incremental trainer's per-(entity, metric) state: the
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
}

// targetStats returns the robust center/scale and novelty flag for the
// series as a factor target, matching trainAt's observed-only computation.
func (st *seriesState) targetStats() (med, madScale float64, novel bool) {
	if len(st.nanAt) > 0 {
		return st.med, st.madScale, st.novel
	}
	return st.sorted.Median(), 1.4826 * st.sorted.MAD(), false
}

// newSeriesState builds the full per-series state from a raw window starting
// at absolute slice lo, replicating trainAt's placeholder rule exactly.
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
			def = 0
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

// storeEntry is the incremental trainer's per-factor state: the last trained
// factor plus the sufficient statistics that slide with the window — the
// shifted Gram over the selected features, the matching cross-term vector,
// the per-candidate cross products driving feature selection, and the drift
// tracker.
type storeEntry struct {
	f        *factor // immutable, shared with the models that got it
	fittedHi int     // window endpoint the factor was fitted/derived at

	feats       []metricRef // selected features, ranked order
	cand        []metricRef // candidate list the cross stats align with
	targetEpoch uint32
	featEpochs  []uint32
	candEpochs  []uint32

	gram   *mat.Dense // Σ (x_j−sh_j)(x_k−sh_k) over feats; nil when no feats
	xty    []float64  // Σ (x_j−sh_j)(y−sh_y) over feats
	cross  []float64  // Σ (x_c−sh_c)(y−sh_y) per candidate
	slides int        // slides since the statistics were last anchored
	drift  *stats.DriftTracker
}

// FactorStore is the persistent incremental factor store behind
// TrainOpts.Store: it keeps per-(entity, metric) sufficient statistics —
// shifted Gram matrices, cross-term vectors, running moments, sorted windows
// — keyed to an explicit training window [lo, hi) and the hyperparameters
// (TrainWindow, TopB, Lambda) they were built under, and slides them as the
// window advances instead of letting every Train call recompute
// mat.GramCols, the |Pearson| ranking, and the robust statistics from
// scratch. A factor is served from the slid statistics (a "hit": one O(B³)
// solve, no O(n·C) passes). When the slid ranking cannot prove the feature
// selection (adjacent ranks within selectionMarginEps — routine in
// homogeneous topologies full of near-duplicate series), the store re-ranks
// with the exact centered |Pearson| the full path computes, and a changed
// selection is adopted in place (a "reselect": cross terms picked from the
// slid per-candidate accumulators, only the B×B Gram rebuilt). A full refit
// happens only when a guard trips:
//
//   - the MASE drift score of the factor's one-step-ahead predictions
//     exceeds the drift threshold (the learned relationship shifted);
//   - numeric conditioning fails (non-PD standardized Gram, negative
//     residual sum of squares), or RefreshEvery slides accumulated;
//   - the window slid by more than half its width, the hyperparameters or
//     database changed, or a series has in-window missing values (its
//     placeholder fill is window-dependent).
//
// Every fallback is a full refit through the same bit-exact path trainAt
// takes (stats.Center ranking + Ridge.FitColumns), so an anchored or refit
// factor is bit-identical to a full retrain; slid factors agree within a
// rounding bound (property-tested by the metamorph incremental arm).
//
// The store serializes to a compact snapshot (Snapshot/SaveFile with the
// same temp+fsync+rename discipline as the serve layer) and restores with
// consistency validation against the restored database, so a murphyd warm
// restart's first diagnosis performs zero full retrains.
//
// A train at the same window as the last one is a pure hit: every factor
// comes back exactly as fitted. The store is only consulted on the
// default-trainer, direct-read path, and it identifies the window by
// explicit [lo, hi) bounds: a slid window can never alias stale entries.
// All methods are safe for concurrent use; a training pass holds the store
// lock, so concurrent Train calls on one store serialize.
type FactorStore struct {
	mu             sync.Mutex
	driftThreshold float64
	refreshEvery   int

	db      *telemetry.DB
	g       *graph.Graph
	window  int
	topB    int
	lambda  float64
	lo, hi  int
	series  map[metricRef]*seriesState
	entries map[metricRef]*storeEntry
	pending *factorStoreJSON // decoded snapshot awaiting adoption

	hits, refits, reselects, driftTrips, slideCount, resets uint64
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
	// out-of-order windows); Reselects is the subset of hits that re-ranked
	// features exactly and adopted a changed selection in place.
	Hits, Refits, Reselects, DriftTrips, Slides, Resets uint64
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
		Factors: len(s.entries), Series: len(s.series),
		DriftThreshold: s.driftThreshold, RefreshEvery: s.refreshEvery,
	}
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
	var out []FactorHealth
	for ref, e := range s.entries {
		if ref.entity != id {
			continue
		}
		h := FactorHealth{
			Metric:         ref.metric,
			Trained:        e.f != nil,
			Features:       len(e.feats),
			Slides:         e.slides,
			DriftThreshold: s.driftThreshold,
		}
		if sty := s.series[ref]; sty != nil && e.drift != nil {
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
	s.db, s.g = db, g
	s.window, s.topB, s.lambda = window, topB, lambda
	s.lo, s.hi = 0, 0
	s.series = make(map[metricRef]*seriesState)
	s.entries = make(map[metricRef]*storeEntry)
}

// refsEqual reports whether two metricRef slices are element-wise equal.
func refsEqual(a, b []metricRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// incPrep lazily shares the full-refit precomputations across the refitting
// factors of one training pass: centered views (for the bit-identical
// |Pearson| ranking) and shift-subtracted columns (for anchoring the slid
// statistics). Guarded by a mutex because the factor phase runs pooled.
type incPrep struct {
	mu      sync.Mutex
	store   *FactorStore
	ctr     map[metricRef]*stats.Centered
	shifted map[metricRef][]float64
}

func (p *incPrep) centered(ref metricRef) *stats.Centered {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.ctr[ref]; ok {
		return c
	}
	c := stats.Center(p.store.series[ref].win)
	p.ctr[ref] = &c
	return &c
}

func (p *incPrep) shiftedCol(ref metricRef) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.shifted[ref]; ok {
		return c
	}
	st := p.store.series[ref]
	c := make([]float64, len(st.win))
	for i, v := range st.win {
		c[i] = v - st.mom.Shift
	}
	p.shifted[ref] = c
	return c
}

// incJob is one factor's unit of work in the incremental training pass.
type incJob struct {
	ref       metricRef
	cand      []metricRef // shared across the entity's jobs
	candKeys  []string
	entry     *storeEntry
	out       *factor
	hit       bool
	refit     bool
	reselect  bool
	driftTrip bool
}

// candIndex finds a candidate's position in the job's candidate list.
func (j *incJob) candIndex(ref metricRef) (int, bool) {
	for i, c := range j.cand {
		if c == ref {
			return i, true
		}
	}
	return 0, false
}

// train is the incremental training pass: it fills the prepared Model shell
// from the store's slid statistics, refitting only where a guard trips. The
// caller (trainAt) has already validated the window and set m's bounds.
func (s *FactorStore) train(ctx context.Context, m *Model, opts TrainOpts, rec *obs.Recorder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, g, cfg := m.db, m.g, m.cfg
	lo, hi := m.trainLo, m.trainHi

	// Bind to (database, graph, hyperparameters); any change voids the
	// state. The window bounds are explicit in every entry's validity (the
	// statistics are *defined* over [lo, hi)), so a slid window can never
	// alias a stale entry — it either slides the statistics or resets.
	if s.db != db || s.g != g || s.window != cfg.TrainWindow || s.topB != cfg.TopB || s.lambda != cfg.Lambda {
		if s.db != nil && (len(s.entries) > 0 || len(s.series) > 0) {
			s.resets++
		}
		s.resetLocked(db, g, cfg.TrainWindow, cfg.TopB, cfg.Lambda)
	}
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
	anchor := len(s.series) == 0
	if anchor {
		s.lo, s.hi = lo, hi
	}

	// Phase 1: slide (or build) every series' state. Serial: the per-point
	// work is trivial and the enumeration order is part of determinism.
	drop, add := lo-s.lo, hi-s.hi
	leaving := make(map[metricRef][]float64)
	live := make(map[metricRef]bool)
	for _, id := range g.IDs() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: training cancelled: %w", err)
		}
		names := db.MetricNames(id)
		m.metricsOf[id] = names
		for _, name := range names {
			ref := metricRef{id, name}
			live[ref] = true
			st, ok := s.series[ref]
			if !ok {
				s.series[ref] = newSeriesState(db.RawWindow(id, name, lo, hi), lo)
				continue
			}
			if add == 0 && drop == 0 {
				continue
			}
			leaving[ref] = s.slideSeries(st, ref, lo, hi, drop, add)
		}
	}
	for ref := range s.series {
		if !live[ref] {
			delete(s.series, ref)
		}
	}
	if add > 0 {
		s.slideCount += uint64(add)
		rec.Add(obs.CtrIncTrainSlides, int64(add))
	}

	// Phase 2: assemble the factor jobs in graph order (same order and
	// candidate construction as trainAt) and make sure every job has an
	// entry before the pooled phase mutates them.
	var jobs []*incJob
	for _, id := range g.IDs() {
		var cand []metricRef
		for _, nb := range g.InIDs(id) {
			for _, name := range m.metricsOf[nb] {
				cand = append(cand, metricRef{nb, name})
			}
		}
		candKeys := make([]string, len(cand))
		for i, c := range cand {
			candKeys[i] = c.String()
		}
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			e, ok := s.entries[ref]
			if !ok {
				e = &storeEntry{drift: stats.NewDriftTracker(driftWindow)}
				s.entries[ref] = e
			}
			jobs = append(jobs, &incJob{ref: ref, cand: cand, candKeys: candKeys, entry: e})
		}
	}
	jobRefs := make(map[metricRef]bool, len(jobs))
	for _, job := range jobs {
		jobRefs[job.ref] = true
	}
	for ref := range s.entries {
		if !jobRefs[ref] {
			delete(s.entries, ref)
		}
	}

	// Phase 3: per-factor pooled pass — slide the entry's statistics, run
	// the guards, and either derive the factor from the statistics (hit) or
	// fall back to the bit-exact full refit.
	prep := &incPrep{store: s, ctr: make(map[metricRef]*stats.Centered), shifted: make(map[metricRef][]float64)}
	pooled := opts.Workers > 1 && len(jobs) > 1
	if err := forEachIndex(ctx, opts.Workers, len(jobs), func(i int) error {
		return s.runJob(jobs[i], lo, hi, drop, add, leaving, prep, cfg)
	}); err != nil {
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
	for _, job := range jobs {
		m.factors[job.ref] = job.out
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
	for ref, st := range s.series {
		m.current[ref] = st.win[len(st.win)-1]
	}
	s.lo, s.hi = lo, hi
	s.hits += uint64(hits)
	s.refits += uint64(refits)
	s.reselects += uint64(reselects)
	s.driftTrips += uint64(trips)
	rec.Add(obs.CtrIncTrainHits, hits)
	rec.Add(obs.CtrIncTrainRefits, refits)
	rec.Add(obs.CtrIncTrainReselects, reselects)
	rec.Add(obs.CtrIncTrainDriftTrips, trips)
	rec.Add(obs.CtrFactorsTrained, refits)
	if pooled {
		rec.Add(obs.CtrTrainParallelFits, refits)
	}
	return nil
}

// slideSeries advances one series' state from [s.lo, s.hi) to [lo, hi) and
// returns the leaving values (the window prefix that expired), which the
// factor phase downdates against. A series with in-window missing values is
// rebuilt instead (its placeholder fill depends on the window content), which
// bumps its epoch and invalidates dependent factor statistics.
func (s *FactorStore) slideSeries(st *seriesState, ref metricRef, lo, hi, drop, add int) []float64 {
	left := append([]float64(nil), st.win[:drop]...)
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
		return left
	}
	for _, u := range st.win[:drop] {
		st.mom.Pop(u)
		st.sorted.Remove(u)
	}
	for _, v := range enter {
		st.mom.Push(v)
		st.sorted.Insert(v)
	}
	st.win = append(st.win[:0], st.win[drop:]...)
	st.win = append(st.win, enter...)
	return left
}

// runJob processes one factor: guards, statistic slides, and either the
// statistics-derived solve or the full refit.
func (s *FactorStore) runJob(job *incJob, lo, hi, drop, add int, leaving map[metricRef][]float64, prep *incPrep, cfg Config) error {
	e := job.entry
	sty := s.series[job.ref]
	n := len(sty.win)

	needRefit := false
	trip := false
	switch {
	case e.f == nil || e.fittedHi == 0:
		needRefit = true // fresh (or never-anchored) entry
	case !refsEqual(e.cand, job.cand):
		needRefit = true // candidate set changed (metrics appeared/vanished)
	case sty.epoch != e.targetEpoch:
		needRefit = true // target rebuilt (missing values in window)
	default:
		for j, fr := range e.feats {
			fst, ok := s.series[fr]
			if !ok || fst.epoch != e.featEpochs[j] {
				needRefit = true
				break
			}
		}
	}

	if !needRefit && (add > 0 || drop > 0) {
		s.slideEntry(e, job, sty, n, drop, add, leaving)
		e.slides += add
		if e.slides >= s.refreshEvery {
			needRefit = true // scheduled re-anchor bounds accumulated rounding
		} else if score := e.drift.Score(sty.win, driftMinPairs); score > s.driftThreshold {
			needRefit, trip = true, true
		}
	}

	if !needRefit && add == 0 && drop == 0 && e.fittedHi == hi {
		// Same window as the last fit: the trained factor is exactly valid.
		job.out, job.hit = e.f, true
		return nil
	}

	if !needRefit {
		if f, ok := s.solveFromStats(e, job, sty, n, prep, cfg); ok {
			e.f, e.fittedHi = f, hi
			job.out, job.hit = f, true
			return nil
		}
		needRefit = true // selection margin / selection change / conditioning
	}

	f, err := s.refitEntry(e, job, sty, n, hi, prep, cfg)
	if err != nil {
		return err
	}
	job.out, job.refit, job.driftTrip = f, true, trip
	return nil
}

// slideEntry applies the entering/expired rows to the entry's sufficient
// statistics as blocked rank-1 corrections, refreshes stale candidate cross
// terms, and records the one-step-ahead drift evidence.
func (s *FactorStore) slideEntry(e *storeEntry, job *incJob, sty *seriesState, n, drop, add int, leaving map[metricRef][]float64) {
	shY := sty.mom.Shift
	enterY := make([]float64, add)
	for i := 0; i < add; i++ {
		enterY[i] = sty.win[n-add+i] - shY
	}
	leaveY := make([]float64, drop)
	leftY := leaving[job.ref]
	for i := 0; i < drop; i++ {
		leaveY[i] = leftY[i] - shY
	}

	if len(e.feats) > 0 {
		enterCols := make([][]float64, len(e.feats))
		leaveCols := make([][]float64, len(e.feats))
		for j, fr := range e.feats {
			fst := s.series[fr]
			ec := make([]float64, add)
			for i := 0; i < add; i++ {
				ec[i] = fst.win[n-add+i] - fst.mom.Shift
			}
			lc := make([]float64, drop)
			lf := leaving[fr]
			for i := 0; i < drop; i++ {
				lc[i] = lf[i] - fst.mom.Shift
			}
			enterCols[j], leaveCols[j] = ec, lc
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
			shC := cst.mom.Shift
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += (cst.win[i] - shC) * (sty.win[i] - shY)
			}
			e.cross[ci] = sum
			e.candEpochs[ci] = cst.epoch
			continue
		}
		shC := cst.mom.Shift
		sum := e.cross[ci]
		for i := 0; i < add; i++ {
			sum += (cst.win[n-add+i] - shC) * enterY[i]
		}
		lf := leaving[c]
		for i := 0; i < drop; i++ {
			sum -= (lf[i] - shC) * leaveY[i]
		}
		e.cross[ci] = sum
	}

	// Drift evidence: how well does the stale model predict the points that
	// just entered the window?
	if e.f != nil && e.f.model != nil {
		x := make([]float64, len(e.feats))
		for i := 0; i < add; i++ {
			t := n - add + i
			for j, fr := range e.feats {
				x[j] = s.series[fr].win[t]
			}
			e.drift.Push(e.f.model.Predict(x), sty.win[t])
		}
	}
}

// solveFromStats re-ranks the candidates from the slid moments and, when the
// selection provably matches the full ranking, derives the ridge fit from
// the sufficient statistics: an O(C + B³) path replacing the O(n·C + n·B²)
// full recomputation. ok is false when a guard trips.
func (s *FactorStore) solveFromStats(e *storeEntry, job *incJob, sty *seriesState, n int, prep *incPrep, cfg Config) (*factor, bool) {
	momY := &sty.mom
	s1y := momY.S1
	cssY := momY.CenteredSumSq()
	nf := float64(n)

	rs := make([]float64, len(job.cand))
	order := make([]int, len(job.cand))
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
	// Margin guard: the slid correlations agree with the full recomputation
	// to rounding; adjacent ranks closer than the margin (or selected ranks
	// grazing zero) could order differently under the full ranking, so the
	// slid ranking alone cannot prove the selection.
	trusted := true
	for i := 0; i < b; i++ {
		ri := rs[order[i]]
		if ri == 0 {
			break // everything from here on is unselected either way
		}
		if ri < selectionMarginEps ||
			(i+1 < len(order) && ri-rs[order[i+1]] < selectionMarginEps) {
			trusted = false
			break
		}
	}
	var feats []metricRef
	if trusted {
		feats = make([]metricRef, 0, b)
		for _, i := range order[:b] {
			if rs[i] > 0 {
				feats = append(feats, job.cand[i])
			}
		}
	}
	if !trusted || !refsEqual(feats, e.feats) {
		// The slid ranking cannot prove the selection (sub-margin gaps are
		// routine in homogeneous topologies, where near-duplicate series tie
		// almost exactly). Re-rank with the exact centered |Pearson| the
		// full path computes — bit-identical selection by construction at
		// O(n·C), still skipping the O(n·B²) fit and the O(n·(B+C))
		// re-anchor a full refit would pay.
		feats = s.rankExact(job, prep, cfg)
		if !refsEqual(feats, e.feats) {
			// The selection genuinely changed. The slid cross accumulators
			// already hold X'y against the current shifts for every
			// candidate, so adopt the new selection in place: pick the
			// cross terms, rebuild only the B×B Gram over the shifted
			// columns, and fall through to the closed-form solve.
			if !s.reselectEntry(e, job, feats, prep) {
				return nil, false
			}
			job.reselect = true
		}
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
		for j, fr := range e.feats {
			fm := &s.series[fr].mom
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
		target:   job.ref,
		features: append([]metricRef(nil), e.feats...),
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

// reselectEntry adopts a changed feature selection without a full refit:
// xty comes from the candidate cross accumulators (already slid against the
// current shifts), and the selected-feature Gram is rebuilt from the
// batch-shared shifted columns. Returns false — forcing the full refit —
// when any new feature's cross term is stale (epoch moved since it was
// accumulated; slideEntry refreshes those, so this is a safety net).
func (s *FactorStore) reselectEntry(e *storeEntry, job *incJob, feats []metricRef, prep *incPrep) bool {
	xty := make([]float64, len(feats))
	epochs := make([]uint32, len(feats))
	for j, fr := range feats {
		ci, ok := job.candIndex(fr)
		if !ok || s.series[fr].epoch != e.candEpochs[ci] {
			return false
		}
		xty[j] = e.cross[ci]
		epochs[j] = s.series[fr].epoch
	}
	e.feats = append(e.feats[:0], feats...)
	e.featEpochs = epochs
	e.xty = xty
	if len(feats) == 0 {
		e.gram = nil
		return true
	}
	cols := make([][]float64, len(feats))
	for j, fr := range feats {
		cols[j] = prep.shiftedCol(fr)
	}
	e.gram = mat.GramCols(cols)
	return true
}

// rankExact performs the full path's feature selection: centered |Pearson|
// ranking over the window with the candidate-key tiebreak, bit-identical to
// trainAt's. The centered columns come from the batch-shared prep cache, so
// the per-entry cost is one length-n dot product per candidate.
func (s *FactorStore) rankExact(job *incJob, prep *incPrep, cfg Config) []metricRef {
	yctr := prep.centered(job.ref)
	rs := make([]float64, len(job.cand))
	order := make([]int, len(job.cand))
	for i, c := range job.cand {
		rs[i] = stats.AbsPearsonCentered(prep.centered(c), yctr)
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
	return feats
}

// refitEntry is the fallback: the bit-exact full fit trainAt would perform
// (centered |Pearson| ranking, Ridge.FitColumns), plus a fresh anchor of the
// entry's sufficient statistics against the current shifts.
func (s *FactorStore) refitEntry(e *storeEntry, job *incJob, sty *seriesState, n, hi int, prep *incPrep, cfg Config) (*factor, error) {
	yctr := prep.centered(job.ref)
	f := &factor{target: job.ref, hmean: yctr.Mean}
	if n >= 2 {
		f.hstd = math.Sqrt(yctr.SumSq / float64(n-1))
	}
	f.med, f.madScale, f.novel = sty.targetStats()
	f.rscore = f.robustScoreAt(sty.win[n-1])

	feats := s.rankExact(job, prep, cfg)
	f.features = feats
	featCols := make([][]float64, len(feats))
	for j, fr := range feats {
		featCols[j] = s.series[fr].win
	}
	model := regress.NewRidge(cfg.Lambda)
	if err := model.FitColumns(featCols, sty.win); err != nil {
		return nil, fmt.Errorf("core: fit factor %s: %w", job.ref, err)
	}
	f.model = model

	// Anchor the slid statistics against the current shifts.
	shiftedY := prep.shiftedCol(job.ref)
	e.feats = append(e.feats[:0], feats...)
	e.cand = job.cand
	e.targetEpoch = sty.epoch
	e.featEpochs = make([]uint32, len(feats))
	if len(feats) > 0 {
		shiftedCols := make([][]float64, len(feats))
		for j, fr := range feats {
			shiftedCols[j] = prep.shiftedCol(fr)
			e.featEpochs[j] = s.series[fr].epoch
		}
		e.gram = mat.GramCols(shiftedCols)
		e.xty = mat.MulVecCols(shiftedCols, shiftedY)
	} else {
		e.gram, e.xty = nil, nil
	}
	e.cross = make([]float64, len(job.cand))
	e.candEpochs = make([]uint32, len(job.cand))
	for i, c := range job.cand {
		e.cross[i] = mat.Dot(prep.shiftedCol(c), shiftedY)
		e.candEpochs[i] = s.series[c].epoch
	}
	e.slides = 0
	e.drift.Reset()
	e.f, e.fittedHi = f, hi
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
	deltas := make(map[metricRef]float64)
	for ref, st := range s.series {
		d := st.mom.S1 / float64(st.mom.N)
		sd := st.mom.Std()
		if st.mom.N == 0 || d == 0 {
			continue
		}
		if (sd > 0 && math.Abs(d) > recenterFrac*sd) || sd == 0 {
			deltas[ref] = d
		}
	}
	if len(deltas) == 0 {
		return
	}
	nf := float64(n)
	s1of := func(ref metricRef) float64 { return s.series[ref].mom.S1 }
	for ref, e := range s.entries {
		if e.f == nil || e.fittedHi == 0 {
			continue
		}
		dy := deltas[ref]
		s1y := s1of(ref)
		touched := dy != 0
		if !touched {
			for _, fr := range e.feats {
				if deltas[fr] != 0 {
					touched = true
					break
				}
			}
		}
		if touched && len(e.feats) > 0 {
			dj := make([]float64, len(e.feats))
			s1j := make([]float64, len(e.feats))
			for j, fr := range e.feats {
				dj[j] = deltas[fr]
				s1j[j] = s1of(fr)
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
			e.cross[ci] += -dc*s1y - dy*s1of(c) + nf*dc*dy
		}
	}
	for ref := range deltas {
		s.series[ref].mom.Recenter()
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

// candListHash fingerprints a candidate list (order-sensitive).
func candListHash(cand []metricRef) uint64 {
	h := fnv.New64a()
	for _, c := range cand {
		h.Write([]byte(c.String()))
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
	refs := make([]metricRef, 0, len(s.series))
	for ref := range s.series {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].String() < refs[b].String() })
	for _, ref := range refs {
		st := s.series[ref]
		if len(st.win) == 0 {
			continue
		}
		p.Series = append(p.Series, factorStoreSeriesJSON{
			factorStoreRefJSON: refToJSON(ref),
			Shift:              st.mom.Shift, S1: st.mom.S1, S2: st.mom.S2,
			NanAt: append([]int(nil), st.nanAt...),
			Epoch: st.epoch,
			First: st.win[0], Last: st.win[len(st.win)-1],
		})
	}
	erefs := make([]metricRef, 0, len(s.entries))
	for ref := range s.entries {
		erefs = append(erefs, ref)
	}
	sort.Slice(erefs, func(a, b int) bool { return erefs[a].String() < erefs[b].String() })
	for _, ref := range erefs {
		e := s.entries[ref]
		if e.f == nil || e.fittedHi == 0 {
			continue // never anchored: nothing worth persisting
		}
		ridge, ok := e.f.model.(*regress.Ridge)
		if !ok {
			continue
		}
		ej := factorStoreEntryJSON{
			factorStoreRefJSON: refToJSON(ref),
			TargetEpoch:        e.targetEpoch,
			FeatEpochs:         append([]uint32(nil), e.featEpochs...),
			Xty:                append([]float64(nil), e.xty...),
			Cross:              append([]float64(nil), e.cross...),
			CandEpochs:         append([]uint32(nil), e.candEpochs...),
			CandHash:           candListHash(e.cand),
			Slides:             e.slides,
			FittedHi:           e.fittedHi,
			Model:              ridge.State(),
			Hmean:              e.f.hmean, Hstd: e.f.hstd,
			Med: e.f.med, MadScale: e.f.madScale,
			Rscore: e.f.rscore, Novel: e.f.novel,
		}
		for _, fr := range e.feats {
			ej.Feats = append(ej.Feats, refToJSON(fr))
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

// SaveFile writes the snapshot with the crash-safe discipline of the serve
// layer's snapshots: temp file, fsync, atomic rename.
func (s *FactorStore) SaveFile(path string) error {
	data, err := s.Snapshot()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".factorstore-*.tmp")
	if err != nil {
		return fmt.Errorf("core: factor store save: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: factor store save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: factor store save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: factor store save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("core: factor store save: %w", err)
	}
	return nil
}

// LoadFile reads a snapshot written by SaveFile and stages it for adoption.
func (s *FactorStore) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: factor store load: %w", err)
	}
	return s.RestoreSnapshot(data)
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
	series := make(map[metricRef]*seriesState, len(p.Series))
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
		series[ref] = st
	}
	type candInfo struct {
		cand []metricRef
		hash uint64
	}
	candOf := make(map[telemetry.EntityID]*candInfo)
	entries := make(map[metricRef]*storeEntry, len(p.Entries))
	for i := range p.Entries {
		ej := &p.Entries[i]
		ref := refFromJSON(ej.factorStoreRefJSON)
		if series[ref] == nil {
			continue
		}
		ci := candOf[ref.entity]
		if ci == nil {
			var cand []metricRef
			for _, nb := range s.g.InIDs(ref.entity) {
				for _, name := range db.MetricNames(nb) {
					cand = append(cand, metricRef{nb, name})
				}
			}
			ci = &candInfo{cand: cand, hash: candListHash(cand)}
			candOf[ref.entity] = ci
		}
		if ci.hash != ej.CandHash || len(ej.Cross) != len(ci.cand) || len(ej.CandEpochs) != len(ci.cand) {
			continue
		}
		nb := len(ej.Feats)
		if len(ej.FeatEpochs) != nb || len(ej.Xty) != nb || len(ej.Gram) != nb*nb {
			continue
		}
		feats := make([]metricRef, nb)
		ok := true
		for j, fj := range ej.Feats {
			fr := refFromJSON(fj)
			if series[fr] == nil {
				ok = false
				break
			}
			feats[j] = fr
		}
		if !ok || len(ej.DriftPreds) != len(ej.DriftActuals) {
			continue
		}
		e := &storeEntry{
			fittedHi:    ej.FittedHi,
			feats:       feats,
			cand:        ci.cand,
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
			target:   ref,
			features: append([]metricRef(nil), feats...),
			model:    regress.NewRidgeFromState(ej.Model),
			hmean:    ej.Hmean, hstd: ej.Hstd,
			med: ej.Med, madScale: ej.MadScale,
			rscore: ej.Rscore, novel: ej.Novel,
		}
		entries[ref] = e
	}
	s.series = series
	s.entries = entries
	s.lo, s.hi = p.Lo, p.Hi
}
