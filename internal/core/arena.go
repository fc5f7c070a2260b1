package core

import (
	"sync"

	"murphy/internal/stats"
)

// arena is the per-candidate scratch space of the batched Gibbs kernel. The
// sampler's state — one vector of n parallel chain values per touched
// (entity, metric) — lives in flat slices indexed by the model's series
// slots, plus the fixed-budget test's counterfactual draws. The kernel
// resets each touched slot to its scalar start value and writes a slot's
// vector in full whenever it makes one, so buffers never need clearing
// between passes, batches, or candidates; they just get reused at whatever
// capacity they last grew to.
//
// An arena is single-goroutine scratch: every candidate evaluation takes its
// own from the model's pool.
type arena struct {
	vals [][]float64
	// scal holds a slot's value while every chain agrees on it (isVec
	// false); vals holds it once the chains diverge.
	scal  []float64
	isVec []bool
	// x is the per-sample feature gather buffer of generic (non-fused) steps.
	x []float64
	// cf holds the fixed-budget test's counterfactual draws while the
	// factual pass reuses the slot vectors.
	cf []float64
	// rng are the kernel's noise generators, reseeded in place for each
	// test: a fixed-budget test draws from rng[0], an early-stop test from
	// rng[0] (counterfactual) and rng[1] (factual).
	rng [2]stats.Rand64
}

func newArena() *arena { return &arena{} }

// slots returns the kernel's slot tables, grown to nslots entries: the
// chain vectors, each slot's scalar value, and whether the slot currently
// holds a vector (true) or its scalar.
func (a *arena) slots(nslots int) ([][]float64, []float64, []bool) {
	if len(a.vals) < nslots {
		nv := make([][]float64, nslots)
		copy(nv, a.vals)
		a.vals = nv
		a.scal = make([]float64, nslots)
		a.isVec = make([]bool, nslots)
	}
	return a.vals, a.scal, a.isVec
}

// cfDraws returns the counterfactual draw buffer, sized n.
func (a *arena) cfDraws(n int) []float64 {
	if cap(a.cf) < n {
		a.cf = make([]float64, n)
	}
	return a.cf[:n]
}

// arenaPool hands out arenas to candidate evaluations; it is shared (by
// pointer) between a model and its Rebind copies, which is safe because an
// arena carries no model state.
type arenaPool struct{ p sync.Pool }

func newArenaPool() *arenaPool {
	return &arenaPool{p: sync.Pool{New: func() any { return newArena() }}}
}

func (ap *arenaPool) get() *arena  { return ap.p.Get().(*arena) }
func (ap *arenaPool) put(a *arena) { ap.p.Put(a) }
