// Flat-slice kernels for the batched Gibbs sampler: the factor application
// loop is restructured from per-sample map lookups and interface calls into
// whole-chain-vector operations over contiguous slices, which these helpers
// implement with the bounds checks hoisted so the compiler can keep the
// inner loops tight.

package mat

// Fill sets every element of dst to v.
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// AccumTerm adds one standardized regression term across a whole chain
// vector: dst[i] += c·(src[i]−mean)/std. The per-element operation order is
// exactly regress.Ridge.Predict's term evaluation, so applying the terms
// feature-by-feature over the batch stays bit-identical to the original
// sample-by-sample prediction loop.
//
// On amd64 the loop runs two chains per packed SSE2 instruction
// (kernels_amd64.s): each lane rounds exactly like the scalar operation, so
// the packed loop gives accumTermGo's bits.
func AccumTerm(dst, src []float64, c, mean, std float64) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	accumTerm(dst[:len(src)], src, c, mean, std)
}

// accumTermGo is AccumTerm's portable loop over equal-length vectors: the
// body on architectures without an assembly one, and the reference the
// amd64 loop is tested against.
func accumTermGo(dst, src []float64, c, mean, std float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += c * (x - mean) / std
	}
}

// AddConst adds v to every element of dst: a regression term whose feature
// every chain agrees on, computed once and applied with the same
// per-element addition AccumTerm would make.
func AddConst(dst []float64, v float64) {
	for i := range dst {
		dst[i] += v
	}
}
