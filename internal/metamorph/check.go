package metamorph

import (
	"context"
	"fmt"
	"math"
	"sort"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// Options selects one fast-path configuration of the pipeline. The zero
// value is the reference serial path every invariant compares against.
type Options struct {
	// EarlyStop enables the sequential Welch test.
	EarlyStop bool
	// Workers sizes the model's one worker pool, which runs both the
	// training fits and the candidate evaluations (0/1 = serial).
	Workers int
	// Store trains twice at the same slice through a fresh incremental
	// factor store: the anchoring pass, then a pass served from the store,
	// both of which promise bit-identical factors to a full retrain. The
	// diagnosis runs on the second pass's model.
	Store bool
	// SeedFor overrides the per-candidate-pair RNG seed derivation (used by
	// the rename invariant to replay the original IDs' streams).
	SeedFor func(candidate, symptom telemetry.EntityID) int64
	// Samples overrides the Monte-Carlo budget (0 = BaseConfig's).
	Samples int
}

// BaseConfig is the reduced-budget Murphy configuration all metamorphic runs
// use: the code path is identical to production, the Monte-Carlo and
// training budgets are sized so a fuzzed case diagnoses in tens of
// milliseconds.
func BaseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = 96
	cfg.TrainWindow = 120
	return cfg
}

// Diagnose trains and diagnoses one case under the given configuration.
func Diagnose(c *Case, opt Options) (*core.Diagnosis, error) {
	cfg := BaseConfig()
	cfg.Sampler.EarlyStop = opt.EarlyStop
	cfg.SeedFor = opt.SeedFor
	if opt.Samples > 0 {
		cfg.Samples = opt.Samples
	}
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		return nil, fmt.Errorf("build graph: %w", err)
	}
	topts := core.TrainOpts{Now: -1, Workers: opt.Workers}
	if opt.Store {
		topts.Store = core.NewFactorStore()
		if _, err := core.TrainOpt(context.Background(), c.DB, g, cfg, topts); err != nil {
			return nil, fmt.Errorf("anchor store: %w", err)
		}
	}
	model, err := core.TrainOpt(context.Background(), c.DB, g, cfg, topts)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if opt.Store && topts.Store.Stats().Hits == 0 {
		return nil, fmt.Errorf("second train at the same slice served no store hits: %+v", topts.Store.Stats())
	}
	diag, err := model.Diagnose(c.Symptom)
	if err != nil {
		return nil, fmt.Errorf("diagnose: %w", err)
	}
	return diag, nil
}

// identity is the no-op entity back-mapping.
func identity(id telemetry.EntityID) telemetry.EntityID { return id }

// certifiedIDs returns the certified cause entities back-mapped through
// back and sorted.
func certifiedIDs(d *core.Diagnosis, back func(telemetry.EntityID) telemetry.EntityID) []telemetry.EntityID {
	out := make([]telemetry.EntityID, len(d.Causes))
	for i, rc := range d.Causes {
		out[i] = back(rc.Entity)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sameCertified checks that two diagnoses certified the same root-cause set.
func sameCertified(ref, got *core.Diagnosis, back func(telemetry.EntityID) telemetry.EntityID) error {
	a, b := certifiedIDs(ref, identity), certifiedIDs(got, back)
	if len(a) != len(b) {
		return fmt.Errorf("certified %d causes, reference certified %d (%v vs %v)", len(b), len(a), b, a)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("certified set differs from reference: %v vs %v", b, a)
		}
	}
	return nil
}

// bitIdentical checks that two diagnoses agree bit for bit on every
// certified cause (entity, score, p-value, effect, sample count) after
// back-mapping got's entities. Both lists are compared in back-mapped entity
// order so exact score ties cannot produce spurious mismatches.
func bitIdentical(ref, got *core.Diagnosis, back func(telemetry.EntityID) telemetry.EntityID) error {
	if err := sameCertified(ref, got, back); err != nil {
		return err
	}
	if len(ref.Candidates) != len(got.Candidates) {
		return fmt.Errorf("candidate space %d vs reference %d", len(got.Candidates), len(ref.Candidates))
	}
	type row struct {
		entity           telemetry.EntityID
		score, p, effect float64
		samples          int
	}
	collect := func(d *core.Diagnosis, back func(telemetry.EntityID) telemetry.EntityID) []row {
		rows := make([]row, len(d.Causes))
		for i, rc := range d.Causes {
			rows[i] = row{back(rc.Entity), rc.Score, rc.PValue, rc.Effect, rc.SamplesUsed}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].entity < rows[j].entity })
		return rows
	}
	ra, rb := collect(ref, identity), collect(got, back)
	for i := range ra {
		a, b := ra[i], rb[i]
		if a.entity != b.entity ||
			math.Float64bits(a.score) != math.Float64bits(b.score) ||
			math.Float64bits(a.p) != math.Float64bits(b.p) ||
			math.Float64bits(a.effect) != math.Float64bits(b.effect) ||
			a.samples != b.samples {
			return fmt.Errorf("cause %s: got (score=%v p=%v eff=%v n=%d), reference (score=%v p=%v eff=%v n=%d)",
				a.entity, b.score, b.p, b.effect, b.samples, a.score, a.p, a.effect, a.samples)
		}
	}
	return nil
}

// decisive reports whether a certified cause's verdict has enough
// statistical margin to survive any equally valid RNG stream. Across
// independent Gibbs streams a candidate's t-statistic moves by roughly one
// standard unit (the effect estimate shifts ~1 standard error per stream,
// more when early stopping truncates the sample), so a verdict is only
// stream-stable when it clears the certification boundary by several
// stream-sigmas, i.e. by orders of magnitude in p, not a factor of ten:
// p ≤ Alpha×1e-8 puts the t-statistic ≈4 stream-sigmas above the
// certification threshold, and effect ≥ 3×MinEffect leaves the effect
// boundary ≥4 standard errors of slack at that significance. (Empirically
// the fuzzed suites separate cleanly: genuine causes land at p ≤ 1e-50 with
// effects ≥ 0.7, while correlated bystanders oscillate between p ≈ 1e-7 and
// non-certification from stream to stream.) Causes without that margin are
// borderline and may flip under configurations that legitimately alter
// sampling.
func decisive(rc core.RootCause, cfg core.Config) bool {
	return rc.PValue <= cfg.Alpha*1e-8 && rc.Effect >= cfg.MinEffect*3
}

// agreeCertified checks that two diagnoses agree on every decisive cause:
// a decisive cause on either side must be certified on the other. Borderline
// causes may differ — that slack is exactly the statistical noise band the
// sampling configurations are allowed to occupy.
func agreeCertified(ref, got *core.Diagnosis) error {
	cfg := BaseConfig()
	inGot := map[telemetry.EntityID]bool{}
	for _, rc := range got.Causes {
		inGot[rc.Entity] = true
	}
	inRef := map[telemetry.EntityID]bool{}
	for _, rc := range ref.Causes {
		inRef[rc.Entity] = true
	}
	for _, rc := range ref.Causes {
		if decisive(rc, cfg) && !inGot[rc.Entity] {
			return fmt.Errorf("decisive reference cause %s (p=%.2g eff=%.3f) lost", rc.Entity, rc.PValue, rc.Effect)
		}
	}
	for _, rc := range got.Causes {
		if decisive(rc, cfg) && !inRef[rc.Entity] {
			return fmt.Errorf("decisive cause %s (p=%.2g eff=%.3f) gained over the reference", rc.Entity, rc.PValue, rc.Effect)
		}
	}
	return nil
}

// CheckInvariants runs every metamorphic invariant of one case against its
// reference diagnosis and returns an error naming the first violation. The
// case's (Family, Index, Seed) triple in the error is enough to replay it.
func CheckInvariants(c *Case) error {
	ref, err := Diagnose(c, Options{})
	if err != nil {
		return caseErr(c, "reference", err)
	}

	// Rename: order-preserving ID rewrite + original seed streams → the
	// diagnosis must survive bit for bit.
	renamed, inv := Rename(c)
	baseSeed := BaseConfig().Seed
	seedFor := func(a, d telemetry.EntityID) int64 {
		return core.PairSeed(baseSeed, inv[a], inv[d])
	}
	got, err := Diagnose(renamed, Options{SeedFor: seedFor})
	if err != nil {
		return caseErr(c, "rename", err)
	}
	back := func(id telemetry.EntityID) telemetry.EntityID { return inv[id] }
	if err := bitIdentical(ref, got, back); err != nil {
		return caseErr(c, "rename", err)
	}

	// Edge-insertion-order permutation: neighbor accessors sort, so the
	// result must be bit-identical.
	got, err = Diagnose(PermuteEdges(c, c.Seed+1), Options{})
	if err != nil {
		return caseErr(c, "permute-edges", err)
	}
	if err := bitIdentical(ref, got, identity); err != nil {
		return caseErr(c, "permute-edges", err)
	}

	// Affine rescaling of unit-bearing metrics: the ridge penalty is mildly
	// scale-sensitive, so the guarantee is outcome-level — the certified
	// root-cause set survives.
	got, err = Diagnose(Rescale(c, c.Seed+2), Options{})
	if err != nil {
		return caseErr(c, "rescale", err)
	}
	if err := sameCertified(ref, got, identity); err != nil {
		return caseErr(c, "rescale", err)
	}

	// Disconnected decoys: unreachable from the symptom, so bit-identical.
	got, err = Diagnose(InjectDecoys(c, c.Seed+3), Options{})
	if err != nil {
		return caseErr(c, "inject-decoys", err)
	}
	if err := bitIdentical(ref, got, identity); err != nil {
		return caseErr(c, "inject-decoys", err)
	}

	// Ablating the truth's telemetry: monotone degradation. Flattening the
	// true cause's metrics rewires every factor that used them as features,
	// so blame legitimately shifts onto correlated bystanders — what must
	// never happen is the diagnosis getting *better* at finding the incident
	// after its evidence was deleted. Concretely: the truth itself must not
	// stay certified, and a case the reference missed must not become a hit.
	got, err = Diagnose(AblateTruth(c), Options{})
	if err != nil {
		return caseErr(c, "ablate-truth", err)
	}
	for _, rc := range got.Causes {
		if rc.Entity == c.Truth {
			return caseErr(c, "ablate-truth", fmt.Errorf("truth %s still certified after its telemetry was ablated", rc.Entity))
		}
	}
	if !hitTopK(ref, c.Accept, 5) && hitTopK(got, c.Accept, 5) {
		return caseErr(c, "ablate-truth", fmt.Errorf("ablating the truth turned a top-5 miss into a top-5 hit: %v", certifiedIDs(got, identity)))
	}
	return nil
}

// hitTopK reports whether any acceptable entity ranks in the certified
// top k of the diagnosis.
func hitTopK(d *core.Diagnosis, accept map[telemetry.EntityID]bool, k int) bool {
	for i, id := range d.Ranked() {
		if i >= k {
			break
		}
		if accept[id] {
			return true
		}
	}
	return false
}

// FastPathGrid enumerates every fast-path configuration the cross-check
// compares against the reference serial path: early-stop × workers, plus the
// incremental-store reuse arm (serial and pooled — both anchor and hit
// bit-identically, so a full cross product with the sampling axes would only
// re-test the sampling paths).
func FastPathGrid() []Options {
	var grid []Options
	for _, es := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			grid = append(grid, Options{EarlyStop: es, Workers: workers})
		}
	}
	return append(grid, Options{Store: true}, Options{Store: true, Workers: 4})
}

// crossCheckSamples is the Monte-Carlo budget of the configuration
// cross-check. It is deliberately larger than BaseConfig's: with a small
// budget the t-statistic itself is noisy enough that an independent RNG
// stream (early stop's factual stream) can flip a borderline candidate
// decisively, which is sampling noise, not a fast-path bug. It also exceeds
// the sequential test's minimum draw count, so the early-stop
// configurations genuinely stop early instead of degenerating into the
// full-budget path.
const crossCheckSamples = 640

// CheckCrossConfigs diagnoses one case under every fast-path configuration
// and checks agreement with the reference serial path: decisive root causes
// always match; configurations that only change training (store reuse,
// workers) must additionally match bit for bit, since those paths promise
// bit-identical factors.
func CheckCrossConfigs(c *Case) error {
	ref, err := Diagnose(c, Options{Samples: crossCheckSamples})
	if err != nil {
		return caseErr(c, "reference", err)
	}
	for _, opt := range FastPathGrid() {
		if !opt.EarlyStop && opt.Workers <= 1 && !opt.Store {
			continue // the reference itself
		}
		opt.Samples = crossCheckSamples
		label := fmt.Sprintf("config{earlystop=%v workers=%d store=%v}", opt.EarlyStop, opt.Workers, opt.Store)
		got, err := Diagnose(c, opt)
		if err != nil {
			return caseErr(c, label, err)
		}
		if !opt.EarlyStop {
			// Training-only variants promise bit-identical factors.
			err = bitIdentical(ref, got, identity)
		} else {
			// Early stopping truncates samples and draws the factual side
			// from its own stream: decisive causes must agree, borderline
			// ones may flip.
			err = agreeCertified(ref, got)
		}
		if err != nil {
			return caseErr(c, label, err)
		}
	}
	return nil
}

// incSlideBack is how many slices the incremental-slide check anchors behind
// the newest slice before sliding forward, and incSlideTol the per-parameter
// relative rounding bound the slid factors must stay within. The incremental
// path accumulates one rank-1 update and downdate per slide on the Gram and
// cross-term statistics; each is O(n·eps) relative rounding error, so a
// handful of slides stays ~1e-12 and 1e-6 is a generous certified bound.
const (
	incSlideBack = 6
	incSlideTol  = 1e-6
)

// CheckIncrementalSlide verifies the incremental trainer's sliding contract
// on one case: a store anchored incSlideBack slices in the past and slid
// forward one slice at a time must arrive at factors within incSlideTol of a
// from-scratch retrain at the final slice — with identically selected
// features — and the resulting diagnosis must certify the same decisive
// causes. (The same-slice bit-identity contract of the anchor and of a
// store hit is covered by the cross-config grid's store arms.)
func CheckIncrementalSlide(c *Case) error {
	cfg := BaseConfig()
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		return caseErr(c, "inc-slide", err)
	}
	ctx := context.Background()
	store := core.NewFactorStore()
	last := c.DB.Len() - 1
	var incModel *core.Model
	for t := last - incSlideBack; t <= last; t++ {
		incModel, err = core.TrainOpt(ctx, c.DB, g, cfg, core.TrainOpts{Now: t, Store: store})
		if err != nil {
			return caseErr(c, "inc-slide", err)
		}
	}
	fullModel, err := core.TrainOpt(ctx, c.DB, g, cfg, core.TrainOpts{Now: last})
	if err != nil {
		return caseErr(c, "inc-slide", err)
	}
	for _, id := range c.DB.Entities() {
		for _, metric := range c.DB.MetricNames(id) {
			fv, fok := fullModel.FactorView(id, metric)
			iv, iok := incModel.FactorView(id, metric)
			if fok != iok {
				return caseErr(c, "inc-slide", fmt.Errorf("factor %s/%s trained on one path only (full=%v inc=%v)", id, metric, fok, iok))
			}
			if !fok {
				continue
			}
			if err := factorWithin(fv, iv, incSlideTol); err != nil {
				return caseErr(c, "inc-slide", fmt.Errorf("factor %s/%s: %w", id, metric, err))
			}
		}
	}
	fullDiag, err := fullModel.Diagnose(c.Symptom)
	if err != nil {
		return caseErr(c, "inc-slide", err)
	}
	incDiag, err := incModel.Diagnose(c.Symptom)
	if err != nil {
		return caseErr(c, "inc-slide", err)
	}
	if err := agreeCertified(fullDiag, incDiag); err != nil {
		return caseErr(c, "inc-slide", err)
	}
	return nil
}

// factorWithin checks that two factor views selected the same features and
// agree on every learned parameter within the relative tolerance.
func factorWithin(want, got core.FactorView, tol float64) error {
	if len(want.Features) != len(got.Features) {
		return fmt.Errorf("selected %d features, full retrain selected %d", len(got.Features), len(want.Features))
	}
	for i := range want.Features {
		if want.Features[i] != got.Features[i] {
			return fmt.Errorf("feature %d is %s, full retrain selected %s", i, got.Features[i], want.Features[i])
		}
	}
	check := func(name string, a, b float64) error {
		if math.IsNaN(a) && math.IsNaN(b) {
			return nil
		}
		scale := math.Abs(a)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(a-b) > tol*scale {
			return fmt.Errorf("%s = %v, full retrain got %v (tolerance %.0e)", name, b, a, tol)
		}
		return nil
	}
	if err := check("intercept", want.Intercept, got.Intercept); err != nil {
		return err
	}
	if err := check("residual-std", want.ResidualStd, got.ResidualStd); err != nil {
		return err
	}
	for i := range want.Coef {
		if err := check(fmt.Sprintf("coef[%d]", i), want.Coef[i], got.Coef[i]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("feat-mean[%d]", i), want.FeatMean[i], got.FeatMean[i]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("feat-std[%d]", i), want.FeatStd[i], got.FeatStd[i]); err != nil {
			return err
		}
	}
	for _, p := range [][3]any{
		{"hmean", want.HMean, got.HMean}, {"hstd", want.HStd, got.HStd},
		{"median", want.Med, got.Med}, {"mad-scale", want.MADScale, got.MADScale},
		{"rscore", want.RScore, got.RScore},
	} {
		if err := check(p[0].(string), p[1].(float64), p[2].(float64)); err != nil {
			return err
		}
	}
	if want.Novel != got.Novel {
		return fmt.Errorf("novel = %v, full retrain got %v", got.Novel, want.Novel)
	}
	return nil
}

// caseErr wraps a violation with the replay coordinates of its case.
func caseErr(c *Case, stage string, err error) error {
	return fmt.Errorf("%s[%d] seed=%d %s: %w", c.Family, c.Index, c.Seed, stage, err)
}
