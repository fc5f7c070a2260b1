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

func TestAddScaled32(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		w := float32(rng.NormFloat64())
		src := make([]float32, n)
		dst := make([]float32, n)
		want := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
			dst[i] = float32(rng.NormFloat64())
			want[i] = dst[i] + w*src[i]
		}
		AddScaled32(dst, src, w)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("trial %d elem %d: got %v want %v", trial, i, dst[i], want[i])
			}
		}
	}
}

func TestFillAndWiden(t *testing.T) {
	d := make([]float64, 17)
	Fill(d, 3.5)
	for i, v := range d {
		if v != 3.5 {
			t.Fatalf("Fill elem %d = %v", i, v)
		}
	}
	f := make([]float32, 9)
	Fill32(f, -2)
	for i, v := range f {
		if v != -2 {
			t.Fatalf("Fill32 elem %d = %v", i, v)
		}
	}
	src := []float32{1.5, -0.25, float32(math.Pi)}
	out := make([]float64, len(src))
	Widen(out, src)
	for i := range src {
		if out[i] != float64(src[i]) {
			t.Fatalf("Widen elem %d = %v want %v", i, out[i], float64(src[i]))
		}
	}
}

// TestBlocked32Kernels pins the four-way fused forms against the scalar
// per-term arithmetic they replace. float32 addition is associative-sensitive,
// so the fused kernels may round differently from four sequential AddScaled32
// calls; the check is against the fused expression itself evaluated scalar-
// wise (which is what the kernel promises), with an exact-equality assertion.
func TestBlocked32Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		var w [4]float32
		var src [4][]float32
		for k := range src {
			w[k] = float32(rng.NormFloat64())
			src[k] = make([]float32, n)
			for i := range src[k] {
				src[k][i] = float32(rng.NormFloat64())
			}
		}
		bias := float32(rng.NormFloat64())
		dst := make([]float32, n)
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			want[i] = bias + w[0]*src[0][i] + w[1]*src[1][i] + w[2]*src[2][i] + w[3]*src[3][i]
		}
		Lincomb32x4(dst, src[0], src[1], src[2], src[3], w[0], w[1], w[2], w[3], bias)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("Lincomb32x4 trial %d elem %d: got %v want %v", trial, i, dst[i], want[i])
			}
		}
		add := make([]float32, n)
		for i := range add {
			add[i] = float32(rng.NormFloat64())
			want[i] = add[i] + (w[0]*src[0][i] + w[1]*src[1][i] + w[2]*src[2][i] + w[3]*src[3][i])
		}
		AddScaled32x4(add, src[0], src[1], src[2], src[3], w[0], w[1], w[2], w[3])
		for i := range add {
			if add[i] != want[i] {
				t.Fatalf("AddScaled32x4 trial %d elem %d: got %v want %v", trial, i, add[i], want[i])
			}
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
	dst32 := []float32{1, 1}
	AddScaled32(dst32, []float32{2, 2, 2}, 3)
	if dst32[0] != 7 || dst32[1] != 7 {
		t.Fatalf("got %v", dst32)
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
