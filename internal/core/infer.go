package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"murphy/internal/obs"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// RootCause is one diagnosed root-cause entity for a symptom.
type RootCause struct {
	Entity telemetry.EntityID
	// Score is the anomaly score used for ranking (higher ranks first).
	Score float64
	// PValue is the Welch t-test p-value of the counterfactual shift.
	PValue float64
	// Effect is the mean shift of the symptom metric under the
	// counterfactual, in units of the symptom metric's historical std
	// (positive = the counterfactual alleviates the symptom).
	Effect float64
	// Path is the shortest-path subgraph (candidate → symptom) the
	// resampler walked, in resampling order. The slice may be shared with
	// the model's path cache; treat it as read-only.
	Path []telemetry.EntityID
	// SamplesUsed is the total number of Monte-Carlo draws the verdict
	// consumed across the factual and counterfactual runs. Without early
	// stopping it is 2×cfg.Samples; with cfg.Sampler.EarlyStop it shows how
	// much of the budget the sequential test actually needed.
	SamplesUsed int
	// Degraded marks an anomaly-score-only fallback verdict: the candidate's
	// counterfactual evaluation failed or was cut off, so it was ranked by
	// anomaly score alone without the significance test (PValue and Effect
	// are NaN). Reason says why.
	Degraded bool
	// Reason explains a degraded verdict ("deadline exceeded", "panic: …").
	Reason string
}

// SkippedCandidate records one candidate whose counterfactual evaluation
// did not complete, and why.
type SkippedCandidate struct {
	Entity telemetry.EntityID
	Reason string
}

// Diagnosis is the result of one Diagnose call.
type Diagnosis struct {
	Symptom telemetry.Symptom
	// Causes is the ranked list of root-cause entities (best first).
	Causes []RootCause
	// Degraded ranks (by anomaly score alone) the candidates whose full
	// counterfactual evaluation failed or was cut short — the degradation
	// policy's fallback. Entries carry Degraded=true and a Reason. They are
	// kept separate from Causes so a degraded guess can never displace a
	// certified root cause.
	Degraded []RootCause
	// Skipped lists every candidate that was not fully evaluated, with the
	// reason (deadline, cancellation, evaluator panic).
	Skipped []SkippedCandidate
	// Partial is true when at least one candidate was skipped: the ranked
	// lists are valid but may be incomplete.
	Partial bool
	// Candidates is the pruned search space that was evaluated.
	Candidates []telemetry.EntityID
	// Elapsed is the wall-clock inference time (excluding training).
	Elapsed time.Duration
}

// Ranked returns just the ordered root-cause entity IDs.
func (d *Diagnosis) Ranked() []telemetry.EntityID {
	out := make([]telemetry.EntityID, len(d.Causes))
	for i, c := range d.Causes {
		out[i] = c.Entity
	}
	return out
}

// Diagnose runs the full inference of §4.2 for one symptom: prune the
// candidate search space, evaluate every candidate with the counterfactual
// resampling algorithm, keep the significant ones, and rank them by anomaly
// score. It is DiagnoseContext with a background context (cfg.Timeout, when
// set, still bounds the call).
func (m *Model) Diagnose(symptom telemetry.Symptom) (*Diagnosis, error) {
	return m.DiagnoseContext(context.Background(), symptom)
}

// DiagnoseContext is Diagnose under cooperative cancellation. The deadline
// semantics implement graceful degradation rather than all-or-nothing:
//
//   - An expired deadline (the context's, or cfg.Timeout) stops evaluating
//     further candidates and returns a *partial* Diagnosis — the causes
//     certified so far stay ranked, every unevaluated candidate is recorded
//     in Skipped with a reason and falls back to the anomaly-score-only
//     Degraded ranking. No error is returned: an operator with a deadline
//     wants the best available answer, not a timeout.
//   - An explicitly cancelled context returns promptly with an error
//     wrapping context.Canceled (alongside the partial diagnosis assembled
//     so far): cancellation means the answer is no longer wanted.
//
// A candidate evaluation that panics (a poisoned factor, a bug in a custom
// trainer) is recovered, recorded in Skipped, and degraded like a timeout,
// so one bad candidate cannot take down a diagnosis.
//
// Candidates are evaluated on the model's worker pool (TrainOpts.Workers,
// the parallelism §6.7 suggests); one worker runs them inline. Each sampler
// is independently seeded and every outcome lands in its candidate's own
// slot, assembled in candidate order, so the diagnosis is identical at any
// worker count. One StageTest progress event fires per candidate whose
// evaluation ran, whether it passed, failed or panicked.
func (m *Model) DiagnoseContext(ctx context.Context, symptom telemetry.Symptom) (*Diagnosis, error) {
	if err := m.checkSymptom(symptom); err != nil {
		return nil, err
	}
	if m.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.Timeout)
		defer cancel()
	}
	start := time.Now()
	// The symptom entity itself is always a legal candidate: many real
	// incidents resolve to the symptomatic entity (a local memory leak, a
	// threshold excursion with no upstream driver). Its counterfactual is
	// the degenerate one-node path: normalizing its own anomalous metrics.
	sp := m.obs.StartStage(obs.StagePrune)
	candidates := append(m.Candidates(symptom.Entity), symptom.Entity)
	sp.End()
	m.obs.Add(obs.CtrCandidatesPruned, int64(m.g.Len()-len(candidates)))
	// A slot the context cut off before its evaluation started keeps
	// ran == false and is recorded as skipped below.
	type outcome struct {
		ran       bool
		cause     RootCause
		certified bool
		err       error
	}
	results := make([]outcome, len(candidates))
	var done atomic.Int64
	sp = m.obs.StartStage(obs.StageTest)
	// fn never fails, so the only error is the context's, which the
	// unreached slots record.
	_ = forEachIndex(ctx, m.workers, len(candidates), func(i int) error {
		r := &results[i]
		r.cause, r.certified, r.err = m.evaluateCandidateSafe(ctx, candidates[i], symptom)
		r.ran = true
		if r.err == nil {
			m.obs.Add(obs.CtrCandidatesTested, 1)
		}
		m.obs.Progress(obs.StageTest, int(done.Add(1)), len(candidates), string(candidates[i]))
		return nil
	})
	sp.End()
	d := &Diagnosis{Symptom: symptom, Candidates: candidates}
	sp = m.obs.StartStage(obs.StageRank)
	for i, r := range results {
		switch {
		case !r.ran:
			m.recordSkip(d, candidates[i], skipReason(ctx.Err()))
		case r.err != nil:
			m.recordSkip(d, candidates[i], evalFailReason(r.err))
		case r.certified:
			m.obs.Add(obs.CtrCausesCertified, 1)
			d.Causes = append(d.Causes, r.cause)
		}
	}
	finishDiagnosis(d, start)
	sp.End()
	if errors.Is(ctx.Err(), context.Canceled) {
		return d, fmt.Errorf("core: diagnosis cancelled: %w", ctx.Err())
	}
	return d, nil
}

// skipReason renders a context error as a skip reason.
func skipReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline exceeded"
	}
	return "cancelled"
}

// evalFailReason renders an evaluation failure (context abort mid-sampling,
// or a recovered panic) as a skip reason.
func evalFailReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return skipReason(err)
	}
	return err.Error()
}

// recordSkip registers a not-fully-evaluated candidate: a Skipped entry plus
// an anomaly-score-only Degraded verdict (the degradation policy: when the
// counterfactual test cannot run, rank by how anomalous the entity looks).
func (m *Model) recordSkip(d *Diagnosis, cand telemetry.EntityID, reason string) {
	m.obs.Add(obs.CtrCandidatesSkipped, 1)
	d.Skipped = append(d.Skipped, SkippedCandidate{Entity: cand, Reason: reason})
	d.Degraded = append(d.Degraded, RootCause{
		Entity:   cand,
		Score:    m.AnomalyScore(cand),
		PValue:   math.NaN(),
		Effect:   math.NaN(),
		Degraded: true,
		Reason:   reason,
	})
}

// finishDiagnosis ranks the cause lists and stamps the partial flag.
func finishDiagnosis(d *Diagnosis, start time.Time) {
	sortCauses(d.Causes)
	sortCauses(d.Degraded)
	d.Partial = len(d.Skipped) > 0
	d.Elapsed = time.Since(start)
}

func sortCauses(causes []RootCause) {
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].Score != causes[j].Score {
			return causes[i].Score > causes[j].Score
		}
		return causes[i].Entity < causes[j].Entity
	})
}

// evaluateCandidateSafe runs one candidate evaluation under panic recovery
// and cancellation: a panic or a context abort becomes an error, never a
// crashed or deadlocked diagnosis.
func (m *Model) evaluateCandidateSafe(ctx context.Context, a telemetry.EntityID, symptom telemetry.Symptom) (rc RootCause, ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			rc, ok = RootCause{}, false
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return m.evaluateCandidate(ctx, a, symptom)
}

// checkSymptom validates that a symptom is diagnosable against this model.
func (m *Model) checkSymptom(symptom telemetry.Symptom) error {
	if !m.g.Contains(symptom.Entity) {
		return fmt.Errorf("core: symptom entity %q not in relationship graph", symptom.Entity)
	}
	if f, _ := m.factorOf(symptom.Entity, symptom.Metric); f == nil {
		return fmt.Errorf("core: no telemetry for symptom metric %s/%s", symptom.Entity, symptom.Metric)
	}
	// Training fills a missing current value with its window's median, so a
	// symptom without a value at the diagnosis slice would look normal and
	// every candidate would fail its test without a word.
	if math.IsNaN(m.db.At(symptom.Entity, symptom.Metric, m.now)) {
		return fmt.Errorf("core: symptom metric %s/%s has no value at the diagnosis slice %d", symptom.Entity, symptom.Metric, m.now)
	}
	return nil
}

// Candidates returns the pruned root-cause search space for a symptom
// entity: a threshold-guided BFS per §4.2. The symptom entity itself is
// always excluded; the same space is handed to the baselines for fairness.
func (m *Model) Candidates(symptom telemetry.EntityID) []telemetry.EntityID {
	return m.g.PrunedCandidates(symptom, m.IsAnomalous, m.cfg.MaxCandidates)
}

// EvaluateCandidate runs the counterfactual test: would moving candidate A's
// anomalous metrics two standard deviations toward normal significantly move
// the symptom metric toward normal? It returns the verdict and whether A
// qualifies as a root cause.
func (m *Model) EvaluateCandidate(a telemetry.EntityID, symptom telemetry.Symptom) (RootCause, bool) {
	rc, ok, _ := m.evaluateCandidate(context.Background(), a, symptom)
	return rc, ok
}

// evaluateCandidate is EvaluateCandidate under a context: the per-candidate
// Gibbs sampling loop checks for cancellation between resampling passes, so
// a deadline cuts a stalled evaluation short instead of running it to
// completion.
func (m *Model) evaluateCandidate(ctx context.Context, a telemetry.EntityID, symptom telemetry.Symptom) (RootCause, bool, error) {
	if m.evalHook != nil {
		m.evalHook(a)
	}
	if m.obs.Enabled() {
		t0 := time.Now()
		defer func() {
			m.obs.Observe(obs.HistTestWallMicros, time.Since(t0).Microseconds())
		}()
	}
	d := symptom.Entity
	path := m.paths.ShortestPathSubgraph(a, d)
	if path == nil {
		return RootCause{}, false, nil // A cannot influence D in the graph
	}
	symFactor, symSlot := m.factorOf(d, symptom.Metric)
	if symFactor == nil {
		return RootCause{}, false, nil
	}
	ov := m.counterfactualOverrides(a)
	if ov == nil {
		return RootCause{}, false, nil // nothing to perturb
	}
	alt := stats.Less // high symptom: counterfactual should be lower
	if !symptom.High {
		alt = stats.Greater
	}
	ar := m.arenas.get()
	defer m.arenas.put(ar)

	scale := symFactor.hstd
	if scale == 0 {
		scale = 1
	}
	sign := 1.0 // orient shift so >0 means "counterfactual moves D toward normal"
	if !symptom.High {
		sign = -1
	}
	plan := m.compilePlan(path, symSlot)
	res, shift, used, statErr := m.sampleCandidate(ctx, a, d, plan, ov, alt, ar, sign/scale)
	if statErr != nil {
		if errors.Is(statErr, stats.ErrInsufficientData) {
			return RootCause{}, false, nil
		}
		return RootCause{}, false, statErr
	}
	m.obs.Observe(obs.HistSamplesPerTest, int64(used))
	effect := sign * shift / scale
	rc := RootCause{
		Entity:      a,
		Score:       m.AnomalyScore(a),
		PValue:      res.P,
		Effect:      effect,
		Path:        path,
		SamplesUsed: used,
	}
	if res.P > m.cfg.Alpha || effect < m.cfg.MinEffect {
		// The verdict is still returned populated so callers can inspect
		// why the candidate was rejected.
		return rc, false, nil
	}
	return rc, true, nil
}

// earlyStopBatch is the draw granularity of the sequential test; the verdict
// is re-examined after every counterfactual+factual batch pair once
// earlyStopMinSamples draws per side have accumulated.
const (
	earlyStopBatch      = 256
	earlyStopMinSamples = 512
)

// earlyStopZ is how decided a verdict must be before sampling stops early:
// both the t statistic (vs its critical value) and the effect estimate (vs
// MinEffect) must sit Φ⁻¹(0.999) ≈ 3.1 standard errors past their
// thresholds.
var earlyStopZ = stats.NormalQuantile(0.999)

// sampleCandidate runs one candidate's counterfactual test on the batched
// kernel and the candidate's own arena, returning the test result, the raw
// mean shift mean(factual)−mean(counterfactual), and the total draws
// consumed:
//
//   - Fixed budget (cfg.Sampler.EarlyStop off): one pairSeed stream draws
//     the whole counterfactual budget, then the whole factual budget, and
//     one batch Welch t-test compares them — the original sequential
//     sampler's stream, bit for bit.
//
//   - Sequential (cfg.Sampler.EarlyStop on): two independent streams
//     (counterfactual and factual, so neither run's draws depend on where
//     the other stopped) draw in earlyStopBatch-sized rounds into a
//     streaming Welch state, and earlyStopVerdict decides when to stop.
//
// effScale maps a raw mean shift to the signed effect the accept criterion
// uses (±1/hstd of the symptom factor).
func (m *Model) sampleCandidate(ctx context.Context, a, d telemetry.EntityID, plan *pathPlan, ov *overrides, alt stats.Alternative, ar *arena, effScale float64) (stats.TTestResult, float64, int, error) {
	n := m.cfg.Samples
	seed := m.pairSeed(a, d)

	if !m.cfg.Sampler.EarlyStop {
		ns := m.newStream(ar, 0, seed)
		out, err := m.runPass(ctx, plan, ov, ns, ar, n)
		if err != nil {
			return stats.TTestResult{}, 0, 0, err
		}
		cf := ar.cfDraws(n)
		copy(cf, out) // the factual pass below reuses the arena
		f, err := m.runPass(ctx, plan, nil, ns, ar, n)
		if err != nil {
			return stats.TTestResult{}, 0, 0, err
		}
		res, err := stats.WelchTTest(cf, f, alt)
		if err != nil {
			return stats.TTestResult{}, 0, 0, err
		}
		return res, stats.Mean(f) - stats.Mean(cf), 2 * n, nil
	}

	cfStream := m.newStream(ar, 0, seed)
	fStream := m.newStream(ar, 1, seed^0x5e9c3779b97f4a7d) // independent stream
	var st stats.StreamingWelch
	minDraws := min(earlyStopMinSamples, n)
	decisive := false
	for drawn := 0; drawn < n && !decisive; {
		b := min(earlyStopBatch, n-drawn)
		out, err := m.runPass(ctx, plan, ov, cfStream, ar, b)
		if err != nil {
			return stats.TTestResult{}, 0, 0, err
		}
		st.A.AddAll(out)
		out, err = m.runPass(ctx, plan, nil, fStream, ar, b)
		if err != nil {
			return stats.TTestResult{}, 0, 0, err
		}
		st.B.AddAll(out)
		drawn += b
		decisive = drawn >= minDraws && m.earlyStopVerdict(&st, alt, effScale)
	}
	if decisive {
		m.obs.Add(obs.CtrEarlyStopDecisive, 1)
	} else {
		m.obs.Add(obs.CtrEarlyStopExhausted, 1)
	}
	res, err := st.Test(alt)
	if err != nil {
		return stats.TTestResult{}, 0, 0, err
	}
	return res, st.B.Mean() - st.A.Mean(), st.A.Count() + st.B.Count(), nil
}

// earlyStopVerdict evaluates the three decisive exits of the sequential test
// against the current streaming state (A = counterfactual draws, B = factual
// draws), returning true when sampling can stop:
//
//   - the effect is decisively below MinEffect → rejected, whatever p says
//     (this is what stops near-null candidates: their t statistic hovers in
//     the undecided band forever, but their effect pins to ~0 quickly);
//   - p is decisively above Alpha → rejected;
//   - p is decisively below Alpha AND the effect is decisively above
//     MinEffect → accepted.
func (m *Model) earlyStopVerdict(st *stats.StreamingWelch, alt stats.Alternative, effScale float64) bool {
	eff := effScale * (st.B.Mean() - st.A.Mean())
	na, nb := float64(st.A.Count()), float64(st.B.Count())
	effSE := math.Abs(effScale) * math.Sqrt(st.A.Variance()/na+st.B.Variance()/nb)
	if eff+earlyStopZ*effSE < m.cfg.MinEffect {
		return true // effect decisively below MinEffect: rejected whatever p says
	}
	sig, decided := st.Decisive(alt, m.cfg.Alpha, earlyStopZ)
	if !decided {
		return false
	}
	if !sig {
		return true // p decisively above Alpha: rejected no matter the effect
	}
	return eff-earlyStopZ*effSE > m.cfg.MinEffect // both arms of the accept criterion decided
}

// counterfactualOverrides returns candidate A's counterfactual start state:
// its anomalous metrics moved cfg.CounterfactualSigma standard deviations
// toward their historical means, as a sparse slot override list on top of
// the model's current state. When none of A's metrics clear the pruning
// threshold, the single most anomalous metric is moved instead; a candidate
// with no usable history yields nil. (The sampler used to copy the whole
// current-state map per candidate just to move these few entries; the
// override list is the same perturbation without the copy.)
func (m *Model) counterfactualOverrides(a telemetry.EntityID) *overrides {
	ov := &overrides{}
	moved := false
	best := int32(0)
	bestZ := 0.0
	lo, hi := m.idx.nodeSlots(a)
	for s := lo; s < hi; s++ {
		f := m.factors[s]
		if f == nil || f.hstd == 0 {
			continue
		}
		z := (m.current[s] - f.hmean) / f.hstd
		az := math.Abs(z)
		if az > bestZ {
			bestZ, best = az, s
		}
		if az >= m.cfg.AnomalyZ {
			ov.slots = append(ov.slots, s)
			ov.vals = append(ov.vals, m.moveTowardNormal(s, z))
			moved = true
		}
	}
	if !moved {
		if bestZ == 0 {
			return nil
		}
		f := m.factors[best]
		z := (m.current[best] - f.hmean) / f.hstd
		ov.slots = append(ov.slots, best)
		ov.vals = append(ov.vals, m.moveTowardNormal(best, z))
	}
	return ov
}

// moveTowardNormal returns the counterfactual value for the metric at slot
// s, whose current z-score is z: cfg.CounterfactualSigma standard
// deviations toward the historical mean, without overshooting it.
func (m *Model) moveTowardNormal(s int32, z float64) float64 {
	f := m.factors[s]
	step := m.cfg.CounterfactualSigma
	if step > math.Abs(z) {
		step = math.Abs(z)
	}
	if z > 0 {
		return m.current[s] - step*f.hstd
	}
	return m.current[s] + step*f.hstd
}

// pairSeed derives the RNG base seed for one (candidate, symptom) test:
// cfg.Seed mixed with hashes of both entity IDs, or whatever cfg.SeedFor
// says when the hook is set (metamorphic rename testing).
func (m *Model) pairSeed(a, d telemetry.EntityID) int64 {
	if m.cfg.SeedFor != nil {
		return m.cfg.SeedFor(a, d)
	}
	return PairSeed(m.cfg.Seed, a, d)
}

// PairSeed is the default per-candidate-pair seed derivation: the configured
// base seed mixed with stable hashes of the candidate and symptom entity IDs.
// It is exported so metamorphic transforms that rename entities can install a
// Config.SeedFor hook reproducing the original IDs' streams.
func PairSeed(seed int64, a, d telemetry.EntityID) int64 {
	return seed ^ int64(hashID(a))<<1 ^ int64(hashID(d))
}

// hashID gives a stable small hash of an entity ID for seeding.
func hashID(id telemetry.EntityID) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}
