// Fast normal deviates for the float32 sampling kernel: a splitmix64
// counter generator feeding a 128-layer Marsaglia–Tsang ziggurat. The
// float64 Gibbs kernel keeps math/rand's stream for bit-compatibility with
// the original sampler, drawn from Rand64 (rand64.go), a concrete copy of
// math/rand's generator and ziggurat; the float32 fast path trades that
// stream for this one, which draws a standard normal in a handful of
// integer ops plus one multiply in the ~98% common case — several times
// faster per draw.

package stats

import "math"

// zigLayers is the number of ziggurat rectangles. 128 keeps the tables in
// two cache lines' worth of float64s while keeping the wedge-rejection rate
// under ~2%.
const zigLayers = 128

// zigR/zigV are the standard base-strip parameters for a 128-layer normal
// ziggurat: x_1 = zigR, and every rectangle (plus the base strip, tail
// included) has area zigV.
const (
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
)

var (
	// zigX[0] = zigV/f(zigR) is the virtual width of the base strip,
	// zigX[1] = zigR, then widths shrink to zigX[zigLayers] = 0.
	zigX [zigLayers + 1]float64
	// zigF[i] = exp(-zigX[i]²/2), the curve height at each layer edge.
	zigF [zigLayers + 1]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	zigX[0] = zigV / f(zigR)
	zigX[1] = zigR
	for i := 1; i < zigLayers; i++ {
		// Each rectangle has area zigV: x_i·(f(x_{i+1})−f(x_i)) = zigV.
		h := f(zigX[i]) + zigV/zigX[i]
		if h >= 1 {
			// Only the topmost layer may close the ziggurat at the mode.
			if i < zigLayers-1 {
				panic("stats: ziggurat table construction failed")
			}
			zigX[i+1] = 0
			break
		}
		zigX[i+1] = math.Sqrt(-2 * math.Log(h))
		if zigX[i+1] >= zigX[i] {
			panic("stats: ziggurat table not monotone")
		}
	}
	zigX[zigLayers] = 0
	for i := range zigF {
		zigF[i] = f(zigX[i])
	}
}

// NormSource is a deterministic stream of standard-normal deviates: a
// splitmix64 sequence (see SplitMix64) driving the ziggurat tables above.
// The zero value is a valid stream seeded at 0; use NewNormSource to seed.
// Not safe for concurrent use: every sampling stream owns its own, like
// Rand64 in the float64 kernel.
type NormSource struct {
	state uint64
}

// NewNormSource returns a stream seeded with seed. Streams with different
// seeds start at unrelated points of the splitmix64 sequence.
func NewNormSource(seed int64) *NormSource {
	return &NormSource{state: uint64(seed)}
}

// splitmixGamma is the splitmix64 counter increment (2^64 / φ, odd).
const splitmixGamma = 0x9e3779b97f4a7c15

// SplitMix64 is the SplitMix64 finalizer applied to x + splitmixGamma: a
// bijective avalanche, so the output of a splitmix64 stream whose counter
// stands at x is SplitMix64(x). It is the project's one seed-derivation
// hash — the float32 kernel's noise streams, the fuzzer's per-case seeds and
// trace head sampling all go through it, so every derived stream is a pure,
// uncorrelated function of its inputs.
func SplitMix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next advances the splitmix64 counter and returns the finalized output.
func (s *NormSource) next() uint64 {
	z := SplitMix64(s.state)
	s.state += splitmixGamma
	return z
}

// uniform returns a draw in (0, 1] — never exactly 0, so callers can take
// its log.
func (s *NormSource) uniform() float64 {
	return (float64(s.next()>>11) + 1) * 0x1p-53
}

// normTabBits/normTabSize size the empirical noise table of the bulk float32
// path: 2^12 float32 entries = 16 KiB. The table is indexed randomly, so it
// must stay L1-resident next to the kernel's streaming chain vectors — at
// 64 KiB the random loads fell out of L1 and AddNoise32 dominated the
// profile; 16 KiB keeps the exact-moment guarantees (below) with enough
// distinct values (~2k magnitudes) for the mean statistics downstream.
const (
	normTabBits = 12
	normTabSize = 1 << normTabBits
)

// normTab32 is a fixed empirical standard normal: normTabSize/2 ziggurat
// draws from a pinned seed, antithetically mirrored (every entry appears
// with both signs, so the table's mean and every odd moment are exactly
// zero) and rescaled so the table variance is exactly 1. Bulk float32 noise
// resamples this table uniformly — an i.i.d. draw from a discrete
// distribution with the exact first two moments of N(0,1), which is what
// the downstream Welch t-tests on sample means consume. Tail resolution is
// bounded by the largest tabled draw (≈4σ at this size); the float64 kernel
// and the per-sample float32 fallback keep exact Gaussian streams.
var normTab32 [normTabSize]float32

func init() {
	src := NewNormSource(0x3273796d75727068) // fixed: the table is part of the kernel definition
	half := normTabSize / 2
	xs := make([]float64, half)
	sum2 := 0.0
	for i := range xs {
		x := src.NormFloat64()
		xs[i] = x
		sum2 += x * x
	}
	scale := math.Sqrt(float64(half) / sum2) // table variance exactly 1
	for i, x := range xs {
		v := float32(scale * x)
		normTab32[2*i] = v
		normTab32[2*i+1] = -v
	}
}

// AddNoise32 adds scale·N(0,1) noise to every element of dst, drawing from
// the empirical normal table. It is the bulk noise primitive of the float32
// Gibbs kernel: each splitmix64 output is split into two independent table
// indices (bits 0..13 and 32..45 of the well-mixed finalizer output), so the
// amortized per-element cost is half a splitmix64 finalizer plus one table
// load — an order of magnitude cheaper than a full ziggurat draw. The stream
// advances ceil(len(dst)/2) raw draws per call; the sequence is a pure
// function of the seed and the lengths of the calls made so far.
func (s *NormSource) AddNoise32(dst []float32, scale float32) {
	st := s.state
	n := len(dst)
	i := 0
	for ; i+1 < n; i += 2 {
		z := SplitMix64(st)
		st += splitmixGamma
		dst[i] += scale * normTab32[z&(normTabSize-1)]
		dst[i+1] += scale * normTab32[(z>>32)&(normTabSize-1)]
	}
	if i < n {
		z := SplitMix64(st)
		st += splitmixGamma
		dst[i] += scale * normTab32[z&(normTabSize-1)]
	}
	s.state = st
}

// NormFloat64 returns the next standard-normal deviate of the stream.
func (s *NormSource) NormFloat64() float64 {
	for {
		u := s.next()
		i := int(u & (zigLayers - 1))
		neg := u&zigLayers != 0
		// The top 53 bits give the within-layer uniform.
		x := float64(u>>11) * 0x1p-53 * zigX[i]
		if x < zigX[i+1] {
			// Strictly inside the narrower layer above: accept (~98%).
			if neg {
				return -x
			}
			return x
		}
		if i == 0 {
			// Base strip past zigR (the x < zigX[1] accept above already
			// kept everything inside the rectangle): sample the tail with
			// Marsaglia's exponential method.
			for {
				ex := -math.Log(s.uniform()) / zigR
				ey := -math.Log(s.uniform())
				if ey+ey >= ex*ex {
					if neg {
						return -(zigR + ex)
					}
					return zigR + ex
				}
			}
		}
		// Wedge: accept x with probability proportional to how far the
		// density at x pokes above the layer's flat top.
		if zigF[i]+float64(s.next()>>11)*0x1p-53*(zigF[i+1]-zigF[i]) < math.Exp(-x*x/2) {
			if neg {
				return -x
			}
			return x
		}
	}
}
