// The batched Gibbs sampling kernel. The original resampler walked the
// shortest-path subgraph per sample with a map lookup and an interface call
// per (factor, feature, sample) triple; this kernel compiles the walk once
// per (candidate, symptom) pair into a flat execution plan — slot-indexed
// state vectors, per-step feature index tables, and the trained regression
// terms as contiguous slices — and then applies each factor across the whole
// chain vector at a time with the helpers in internal/mat.
//
// Two arithmetic widths share the plan. The float64 path reproduces the
// original per-sample sampler bit-for-bit: math/rand noise streams consumed
// in the same order, and the term arithmetic c·(x−mean)/std applied in
// Ridge.Predict's exact operation order (mat.AccumTerm).
//
// The float64 path also keeps a slot as one scalar for as long as every
// chain holds the same value there: its start value, a counterfactual
// override, or the output of a noiseless step over scalar features. Most of
// a factor's top-B features lie off the resampled path and never change, so
// this skips filling them into vectors and recomputing their terms per
// chain. A slot becomes a vector only when a step writes noise into it, or
// when a generic step or the returned symptom draws read it. It stays bit
// for bit the original: a step folds its leading scalar terms into its fill
// value with AccumTerm's expression c·(x−mean)/std, then applies the rest in
// feature order, AccumTerm for a vector feature and mat.AddConst of the
// precomputed term for a scalar one. Every chain sees the same IEEE
// operations in the same order, and the noise stream is untouched.
//
// The float32 fast path folds each term to one multiply-add (w = c/std,
// means folded into a per-step bias) and swaps the noise source for the
// ziggurat in internal/stats — a different, faster stream, validated against
// float64 by the metamorph invariants rather than bit-compared.

package core

import (
	"context"
	"math/rand"
	"sync"

	"murphy/internal/mat"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// planStep is one factor application of a resampling round: read the feature
// slots, predict, add noise, write the output slot.
type planStep struct {
	out   int32
	feats []int32
	// Linear fast path (model == nil): the standardized ridge terms, aliasing
	// the trained model's slices. Applied per feature via mat.AccumTerm, or
	// once per step for a feature every chain agrees on, so the arithmetic
	// stays bit-identical to Ridge.Predict.
	coef, mean, std []float64
	intercept       float64
	// Folded float32 form: w32[j] = coef[j]/std[j], with the means folded
	// into bias32, so the float32 kernel does one multiply-add per feature.
	w32    []float32
	bias32 float32
	// model is the generic per-sample fallback: non-linear regressors, an
	// untrained factor, or a factor whose target aliases one of its own
	// features (where the batched form would break read-after-write order).
	model   regress.Predictor
	noise   float64
	noise32 float32
}

// pathPlan is the compiled resampling walk for one (candidate, symptom)
// pair: one round's steps in the original path iteration order (candidate
// node excluded — its perturbed state is pinned), plus the deduplicated set
// of slots the walk touches (for start-state initialization) and the symptom
// metric's slot.
type pathPlan struct {
	steps   []planStep
	touched []int32
	symSlot int32
}

// linearTermer is the regressor interface of the fused fast path.
type linearTermer interface {
	LinearTerms() (coef, mean, std []float64, intercept float64, ok bool)
}

// slotBase caches a model's start state (`current`) as a float32 vector,
// built lazily on first use by the float32 kernel; the float64 kernel
// starts from `current` itself. Per-model, never shared: Rebind changes
// `current`, so each copy gets a fresh one.
type slotBase struct {
	once32 sync.Once
	v32    []float32
}

func (m *Model) base32() []float32 {
	b := m.base
	b.once32.Do(func() {
		v := make([]float32, len(m.current))
		for i, x := range m.current {
			v[i] = float32(x)
		}
		b.v32 = v
	})
	return b.v32
}

// overrides is one candidate's counterfactual start state as a sparse
// slot → value list. The sampler used to copy the entire current-state map
// per candidate just to move a handful of entries; the override list
// replaces the copy with the moved entries alone, applied on top of the
// model's flat base vectors at pass start.
type overrides struct {
	slots []int32
	vals  []float64
}

// compilePlan flattens one resampling walk: for every factor of every
// non-candidate node on the path (in the original iteration order), take
// the output and feature slots and extract the regression terms when the
// trained model exposes them.
func (m *Model) compilePlan(path []telemetry.EntityID, symSlot int32) *pathPlan {
	p := &pathPlan{symSlot: symSlot}
	seen := make(map[int32]bool)
	touch := func(s int32) {
		if !seen[s] {
			seen[s] = true
			p.touched = append(p.touched, s)
		}
	}
	touch(p.symSlot)
	for pi, id := range path {
		if pi == 0 {
			continue // the candidate's perturbed state is held fixed
		}
		lo, hi := m.idx.nodeSlots(id)
		for out := lo; out < hi; out++ {
			f := m.factors[out]
			if f == nil {
				continue
			}
			st := planStep{out: out, feats: f.features, noise: f.model.ResidualStd()}
			st.noise32 = float32(st.noise)
			touch(st.out)
			aliased := false
			for _, fs := range st.feats {
				touch(fs)
				if fs == st.out {
					aliased = true
				}
			}
			if lt, ok := f.model.(linearTermer); ok && !aliased {
				if coef, mean, std, intercept, fitted := lt.LinearTerms(); fitted {
					// Predict evaluates min(len(coef), len(x)) terms; mirror
					// that prefix truncation (coef may even be nil for an
					// intercept-only factor).
					nterms := len(coef)
					if nterms > len(st.feats) {
						nterms = len(st.feats)
					}
					if nterms > len(mean) {
						nterms = len(mean)
					}
					if nterms > len(std) {
						nterms = len(std)
					}
					st.coef, st.mean, st.std = coef[:nterms], mean[:nterms], std[:nterms]
					st.intercept = intercept
					st.w32 = make([]float32, nterms)
					bias := intercept
					for j := 0; j < nterms; j++ {
						st.w32[j] = float32(coef[j] / std[j])
						bias -= coef[j] * mean[j] / std[j]
					}
					st.bias32 = float32(bias)
					p.steps = append(p.steps, st)
					continue
				}
			}
			st.model = f.model
			p.steps = append(p.steps, st)
		}
	}
	return p
}

// noiseStream is one sampling stream's noise source; exactly one field is
// non-nil.
// The float64 kernel keeps *rand.Rand so its draw stream is bit-identical
// to the original sampler's; the float32 kernel uses the ziggurat source.
type noiseStream struct {
	r *rand.Rand
	z *stats.NormSource
}

// newStream seeds one noise stream at the configured precision.
func (m *Model) newStream(seed int64) noiseStream {
	if m.cfg.Sampler.Precision == PrecisionFloat32 {
		return noiseStream{z: stats.NewNormSource(seed)}
	}
	return noiseStream{r: rand.New(rand.NewSource(seed))}
}

// runPass runs one resampling pass of n draws — every chain vector through
// cfg.GibbsRounds rounds of the plan's steps — starting from the model's
// current state with ov's overrides applied (ov == nil is the factual
// start). It returns the symptom metric's n draws as float64s regardless of
// kernel precision (the float32 path widens into arena scratch); the slice
// is arena-owned and valid until the arena's next pass.
func (m *Model) runPass(ctx context.Context, plan *pathPlan, ov *overrides, ns noiseStream, ar *arena, n int) ([]float64, error) {
	if m.cfg.Sampler.Precision == PrecisionFloat32 {
		out32, err := m.runPass32(ctx, plan, ov, ns.z, ar, n)
		if err != nil {
			return nil, err
		}
		conv := ar.scratch64(n)
		mat.Widen(conv, out32)
		return conv, nil
	}
	return m.runPass64(ctx, plan, ov, ns.r, ar, n)
}

func (m *Model) runPass64(ctx context.Context, plan *pathPlan, ov *overrides, rng *rand.Rand, ar *arena, n int) ([]float64, error) {
	base := m.current
	vals, scal, isVec := ar.slots64(len(base))
	// vector marks slot s as holding one value per chain and returns its
	// buffer; the caller writes every element before the next read.
	vector := func(s int32) []float64 {
		buf := vals[s]
		if cap(buf) < n {
			buf = make([]float64, n)
			vals[s] = buf
		}
		isVec[s] = true
		return buf[:n]
	}
	// chains returns slot s's chain vector, spreading a scalar slot's value
	// into one first.
	chains := func(s int32) []float64 {
		if isVec[s] {
			return vals[s][:n]
		}
		buf := vector(s)
		mat.Fill(buf, scal[s])
		return buf
	}
	for _, s := range plan.touched {
		scal[s], isVec[s] = base[s], false
	}
	if ov != nil {
		for i, s := range ov.slots {
			scal[s], isVec[s] = ov.vals[i], false
		}
	}
	x := ar.x[:0]
	defer func() { ar.x = x[:0] }()
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for si := range plan.steps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			st := &plan.steps[si]
			if st.model != nil {
				// Generic fallback: the original per-sample loop, noise
				// drawn inline so the RNG stream order is preserved.
				for _, fs := range st.feats {
					chains(fs)
				}
				out := vector(st.out)
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, fs := range st.feats {
						x = append(x, vals[fs][i])
					}
					v := st.model.Predict(x)
					if st.noise > 0 {
						v += rng.NormFloat64() * st.noise
					}
					out[i] = v
				}
				continue
			}
			// Leading scalar terms fold into the fill value; from the first
			// vector feature on, the terms keep their order, so every chain
			// sees AccumTerm's operations in the original sequence.
			fill := st.intercept
			j := 0
			for ; j < len(st.coef) && !isVec[st.feats[j]]; j++ {
				fill += st.coef[j] * (scal[st.feats[j]] - st.mean[j]) / st.std[j]
			}
			noisy := st.noise > 0
			if j == len(st.coef) && !noisy {
				scal[st.out], isVec[st.out] = fill, false
				continue
			}
			out := vector(st.out)
			mat.Fill(out, fill)
			for ; j < len(st.coef); j++ {
				if fs := st.feats[j]; isVec[fs] {
					mat.AccumTerm(out, vals[fs][:n], st.coef[j], st.mean[j], st.std[j])
				} else {
					mat.AddConst(out, st.coef[j]*(scal[fs]-st.mean[j])/st.std[j])
				}
			}
			if noisy {
				// Batched after the fused accumulation: predictions consume
				// no randomness, so draw i still lands on sample i — the
				// same stream assignment as the per-sample loop.
				for i := range out {
					out[i] += rng.NormFloat64() * st.noise
				}
			}
		}
	}
	m.obs.Add(obs.CtrGibbsSamples, int64(n))
	return chains(plan.symSlot), nil
}

func (m *Model) runPass32(ctx context.Context, plan *pathPlan, ov *overrides, zs *stats.NormSource, ar *arena, n int) ([]float32, error) {
	base := m.base32()
	vals := ar.slots32(len(base))
	ensure := func(s int32) []float32 {
		buf := vals[s]
		if cap(buf) < n {
			buf = make([]float32, n)
			vals[s] = buf
		}
		return buf[:n]
	}
	for _, s := range plan.touched {
		mat.Fill32(ensure(s), base[s])
	}
	if ov != nil {
		for i, s := range ov.slots {
			mat.Fill32(ensure(s), float32(ov.vals[i]))
		}
	}
	x := ar.x[:0]
	defer func() { ar.x = x[:0] }()
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for si := range plan.steps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			st := &plan.steps[si]
			out := vals[st.out][:n]
			if st.model != nil {
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, fs := range st.feats {
						x = append(x, float64(vals[fs][i]))
					}
					v := float32(st.model.Predict(x))
					if st.noise32 > 0 {
						v += float32(zs.NormFloat64()) * st.noise32
					}
					out[i] = v
				}
				continue
			}
			// Apply the folded terms in blocks of four: the first block
			// fuses the bias fill, later blocks quarter the dst traffic,
			// and a scalar tail covers the remainder.
			nf := len(st.w32)
			j := 0
			if nf >= 4 {
				mat.Lincomb32x4(out,
					vals[st.feats[0]][:n], vals[st.feats[1]][:n],
					vals[st.feats[2]][:n], vals[st.feats[3]][:n],
					st.w32[0], st.w32[1], st.w32[2], st.w32[3], st.bias32)
				j = 4
				for ; j+4 <= nf; j += 4 {
					mat.AddScaled32x4(out,
						vals[st.feats[j]][:n], vals[st.feats[j+1]][:n],
						vals[st.feats[j+2]][:n], vals[st.feats[j+3]][:n],
						st.w32[j], st.w32[j+1], st.w32[j+2], st.w32[j+3])
				}
			} else {
				mat.Fill32(out, st.bias32)
			}
			for ; j < nf; j++ {
				mat.AddScaled32(out, vals[st.feats[j]][:n], st.w32[j])
			}
			if st.noise32 > 0 {
				zs.AddNoise32(out, st.noise32)
			}
		}
	}
	m.obs.Add(obs.CtrGibbsSamples, int64(n))
	return vals[plan.symSlot][:n], nil
}
