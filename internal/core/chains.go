// Multi-chain Gibbs sampling: one candidate's factual and counterfactual
// Monte-Carlo budgets are split across Config.Sampler.Chains independent
// chains, each with its own splitmix-derived RNG stream, executed on the
// forEachIndex pool with up to min(K, GOMAXPROCS) goroutines. Chain c always
// owns the same contiguous slice of the budget and the same seed, and merges
// happen in chain order, so for a fixed K the merged draws — and every
// verdict derived from them — are bit-identical no matter how many
// goroutines actually ran.

package core

import (
	"context"
	"runtime"
)

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche of the seed
// counter, the standard generator for deriving independent per-stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMix64 exposes the engine's seed-derivation finalizer for scenario
// generators and fuzzers: deriving every sub-seed (per scenario family, per
// case index) through the same bijective avalanche the sampler uses keeps
// fuzzed workloads deterministic and replayable from a single logged seed
// without correlated RNG streams.
func SplitMix64(x uint64) uint64 { return splitmix64(x) }

// chainSeed derives chain c's RNG seed from the candidate-pair base seed.
// Consecutive chains land in unrelated parts of the splitmix sequence, so the
// per-chain streams are statistically independent while staying a pure
// function of (base, c).
func chainSeed(base int64, c int) int64 {
	return int64(splitmix64(uint64(base) + uint64(c)*0x9e3779b97f4a7c15))
}

// chainCount clamps the configured chain count to the sample budget (every
// chain must own at least one draw).
func (m *Model) chainCount(n int) int {
	k := m.cfg.Sampler.Chains
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// chainBounds returns the half-open budget slice [lo, hi) owned by chain c
// when n draws are split across k chains: the first n%k chains get one extra.
func chainBounds(n, k, c int) (int, int) {
	q, r := n/k, n%k
	lo := c*q + min(c, r)
	hi := lo + q
	if c < r {
		hi++
	}
	return lo, hi
}

// runChains executes fn(c, arena) for chains 0..k-1 on the forEachIndex pool
// with up to min(k, GOMAXPROCS) goroutines. Chain 0 runs on the caller's
// arena, and so does every chain when the pool degrades to the inline loop
// (one usable processor or one chain); a pooled chain c > 0 checks out its
// own. fn must confine its writes to chain c's own output slots; the
// lowest-index error is returned, mirroring what a sequential run would hit
// first.
func (m *Model) runChains(ctx context.Context, k int, ar *arena, fn func(c int, ar *arena) error) error {
	p := min(k, runtime.GOMAXPROCS(0))
	return forEachIndex(ctx, p, k, func(c int) error {
		if p <= 1 || c == 0 {
			return fn(c, ar)
		}
		car := m.arenas.get()
		defer m.arenas.put(car)
		return fn(c, car)
	})
}
