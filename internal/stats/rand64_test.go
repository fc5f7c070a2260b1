package stats

import (
	"math"
	"math/rand"
	"testing"
)

// rand64Seeds covers math/rand's seed folding (0 and multiples of 2³¹−1
// map to its fixed default, negatives wrap), values past 32 bits, the early
// stop's stream xor, and core.PairSeed(1, candidate, symptom) for three
// candidates of the social network's client latency symptom.
var rand64Seeds = []int64{
	0, 1, -1, 89482311, 1<<31 - 1, 1 << 40, -(1 << 50),
	0x5e9c3779b97f4a7d,
	4490058320, 8044287988, 305044842,
}

// nextZigDraw returns the first ziggurat draw the next NormFloat64 of r will
// make, without advancing r.
func nextZigDraw(r *Rand64) int32 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	return int32(uint32(uint64(r.vec[feed]+r.vec[tap]) & rngMask >> 31))
}

// TestRand64MatchesMathRand draws over a million normals per seed from
// Rand64 and from rand.New(rand.NewSource(seed)) and requires the same bits:
// single NormFloat64 calls interleaved with AddNormScaled batches of length
// 0, 1, 255, 256 and 1000, each batch element checked against the
// reference's dst[i] += NormFloat64()*sigma. Single draws are classified
// by their first ziggurat draw, so the test also shows that both slow
// paths, the base strip's tail and a layer's wedge, were taken and matched.
func TestRand64MatchesMathRand(t *testing.T) {
	const perSeed = 1 << 20
	batchLens := []int{0, 1, 255, 256, 1000}
	var got, want []float64
	tails, wedges := 0, 0
	for _, seed := range rand64Seeds {
		var r Rand64
		r.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		draws := 0
		for cycle := 0; draws < perSeed; cycle++ {
			for k := 0; k < 500; k++ {
				j := nextZigDraw(&r)
				if i := j & 0x7F; absInt32(j) >= kn[i] {
					if i == 0 {
						tails++
					} else {
						wedges++
					}
				}
				g, w := r.NormFloat64(), ref.NormFloat64()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, draws, g, w)
				}
				draws++
			}
			n := batchLens[cycle%len(batchLens)]
			sigma := 0.25 + float64(cycle%7)
			got, want = got[:0], want[:0]
			for i := 0; i < n; i++ {
				v := float64(i%13) - 6
				got, want = append(got, v), append(want, v)
			}
			r.AddNormScaled(got, sigma)
			for i := range want {
				want[i] += ref.NormFloat64() * sigma
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d batch of %d at draw %d, element %d: %v, math/rand gives %v", seed, n, draws, i, got[i], want[i])
				}
			}
			draws += n
		}
		if g, w := r.int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d: streams out of step after the normals: int63 %d, math/rand %d", seed, g, w)
		}
		if g, w := r.float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d: float64 %v, math/rand %v", seed, g, w)
		}
	}
	t.Logf("single draws through the base-strip tail: %d, through a wedge: %d", tails, wedges)
	if tails == 0 || wedges == 0 {
		t.Fatalf("slow paths not exercised: %d tail draws, %d wedge draws", tails, wedges)
	}
}

// TestRand64ReseedInPlace: a used generator reseeded in place equals a
// fresh one, state and stream.
func TestRand64ReseedInPlace(t *testing.T) {
	var r, fresh Rand64
	r.Seed(3)
	buf := make([]float64, 777)
	for _, seed := range rand64Seeds {
		r.AddNormScaled(buf, 1)
		r.NormFloat64()
		r.Seed(seed)
		fresh = Rand64{}
		fresh.Seed(seed)
		if r != fresh {
			t.Fatalf("seed %d: reseeded state differs from a fresh generator's", seed)
		}
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if g, w := r.NormFloat64(), ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d after reseed: %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// BenchmarkRand64Noise times the float64 kernel's noise add over one
// 1000-chain vector: the batch method against the *rand.Rand loop it
// replaces.
func BenchmarkRand64Noise(b *testing.B) {
	dst := make([]float64, 1000)
	b.Run("AddNormScaled", func(b *testing.B) {
		var r Rand64
		r.Seed(1)
		for i := 0; i < b.N; i++ {
			r.AddNormScaled(dst, 0.5)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for k := range dst {
				dst[k] += r.NormFloat64() * 0.5
			}
		}
	})
}
