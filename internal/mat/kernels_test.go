package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestAccumTermMatchesScalar pins the batched term application to the exact
// scalar arithmetic of the per-sample prediction loop: for random inputs the
// results must be bit-identical, not just close.
func TestAccumTermMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		c := rng.NormFloat64() * 3
		mean := rng.NormFloat64() * 10
		std := 0.1 + rng.Float64()*5
		src := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 7
			dst[i] = rng.NormFloat64()
			want[i] = dst[i] + c*(src[i]-mean)/std
		}
		AccumTerm(dst, src, c, mean, std)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("trial %d elem %d: got %v want %v (not bit-identical)", trial, i, dst[i], want[i])
			}
		}
	}
}

// TestAddConstMatchesAccumTerm pins the constant-term form against AccumTerm
// over a source vector whose elements all equal one value: adding the term
// computed once must give the bits AccumTerm gives element by element. The
// add covers exactly dst's length, so a prefix of a longer buffer leaves the
// rest of the buffer alone.
func TestAddConstMatchesAccumTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		c := rng.NormFloat64() * 3
		mean := rng.NormFloat64() * 10
		std := 0.1 + rng.Float64()*5
		x := rng.NormFloat64() * 7
		src := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range src {
			src[i] = x
			dst[i] = rng.NormFloat64()
			want[i] = dst[i]
		}
		AccumTerm(want, src, c, mean, std)
		AddConst(dst, c*(x-mean)/std)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d elem %d: got %v want %v (not bit-identical)", trial, i, dst[i], want[i])
			}
		}
	}
	buf := []float64{1, 1, 1}
	AddConst(buf[:2], 0.5)
	if buf[0] != 1.5 || buf[1] != 1.5 || buf[2] != 1 {
		t.Fatalf("AddConst over a 2-element prefix: got %v", buf)
	}
	AddConst(nil, 1) // an empty vector is a no-op
}

func TestFillAndWiden(t *testing.T) {
	d := make([]float64, 17)
	Fill(d, 3.5)
	for i, v := range d {
		if v != 3.5 {
			t.Fatalf("Fill elem %d = %v", i, v)
		}
	}
}

// TestAccumTermLengthClamp documents the defensive clamp: mismatched lengths
// apply only the overlapping prefix instead of panicking.
func TestAccumTermLengthClamp(t *testing.T) {
	dst := []float64{1, 1, 1}
	AccumTerm(dst, []float64{10, 10}, 1, 0, 1)
	if dst[0] != 11 || dst[1] != 11 || dst[2] != 1 {
		t.Fatalf("got %v", dst)
	}
}

// accumSpecials are term inputs whose IEEE handling a packed loop could get
// wrong: NaNs with distinct payloads (which one survives shows the operand
// order), infinities, signed zeros, subnormals and the extremes.
var accumSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
	math.Float64frombits(0xfff8000000000003), math.Float64frombits(0x7ff0000000000004), // the last one signalling
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// TestAccumTermPackedMatchesGo compares AccumTerm, on amd64 the SSE2 loop,
// with the portable Go loop bit for bit for every length 0–67 (both pair
// parities and the scalar tail), with src as long as dst or shorter, over
// random values mixed with accumSpecials in every operand. Elements past
// src's length and past dst's slice must stay untouched.
func TestAccumTermPackedMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return accumSpecials[rng.Intn(len(accumSpecials))]
		}
		return rng.NormFloat64() * 5
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 40; trial++ {
			m := n
			if trial%2 == 1 {
				m = rng.Intn(n + 1) // src shorter than dst
			}
			c, mean, std := pick(), pick(), pick()
			src := make([]float64, m)
			for i := range src {
				src[i] = pick()
			}
			got := make([]float64, n+2) // dst plus two guard elements
			for i := range got {
				got[i] = pick()
			}
			want := append([]float64(nil), got...)
			AccumTerm(got[:n], src, c, mean, std)
			accumTermGo(want[:m], src, c, mean, std)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d len(src)=%d c=%v mean=%v std=%v elem %d: %016x, Go loop gives %016x",
						n, m, c, mean, std, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkAccumTerm times one term over a 1000-chain vector: AccumTerm
// against the portable Go loop.
func BenchmarkAccumTerm(b *testing.B) {
	src := make([]float64, 1000)
	dst := make([]float64, 1000)
	for i := range src {
		src[i] = float64(i)
	}
	b.Run("AccumTerm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumTerm(dst, src, 0.5, 3, 1.5)
		}
	})
	b.Run("go-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumTermGo(dst, src, 0.5, 3, 1.5)
		}
	})
}
