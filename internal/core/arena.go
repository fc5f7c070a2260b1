package core

import "sync"

// arena is the per-candidate scratch space of the batched Gibbs kernel. The
// sampler's state — one vector of n parallel chain values per touched
// (entity, metric) — lives in flat slices indexed by the model's series
// slots, plus the fixed-budget test's counterfactual draws and the float32
// path's widening scratch. Every pass eagerly re-fills the slots its plan
// touches from the start state, so buffers never need clearing between
// passes, batches, or candidates; they just get reused at whatever capacity
// they last grew to.
//
// An arena is single-goroutine scratch: every candidate evaluation takes its
// own from the model's pool.
type arena struct {
	vals64 [][]float64
	vals32 [][]float32
	// x is the per-sample feature gather buffer of generic (non-fused) steps.
	x []float64
	// cf holds the fixed-budget test's counterfactual draws while the
	// factual pass reuses the slot vectors.
	cf []float64
	// conv is the float64 view of a float32 pass's symptom draws.
	conv []float64
}

func newArena() *arena { return &arena{} }

// slots64 returns the slot → chain-vector table, grown to nslots entries.
func (a *arena) slots64(nslots int) [][]float64 {
	if len(a.vals64) < nslots {
		nv := make([][]float64, nslots)
		copy(nv, a.vals64)
		a.vals64 = nv
	}
	return a.vals64
}

// slots32 is slots64 for the float32 kernel.
func (a *arena) slots32(nslots int) [][]float32 {
	if len(a.vals32) < nslots {
		nv := make([][]float32, nslots)
		copy(nv, a.vals32)
		a.vals32 = nv
	}
	return a.vals32
}

// cfDraws returns the counterfactual draw buffer, sized n.
func (a *arena) cfDraws(n int) []float64 {
	if cap(a.cf) < n {
		a.cf = make([]float64, n)
	}
	return a.cf[:n]
}

// scratch64 returns the float32 path's widening buffer, sized n.
func (a *arena) scratch64(n int) []float64 {
	if cap(a.conv) < n {
		a.conv = make([]float64, n)
	}
	return a.conv[:n]
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
