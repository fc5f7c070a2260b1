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

// Fill32 sets every element of dst to v.
func Fill32(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// AccumTerm adds one standardized regression term across a whole chain
// vector: dst[i] += c·(src[i]−mean)/std. The per-element operation order is
// exactly regress.Ridge.Predict's term evaluation, so applying the terms
// feature-by-feature over the batch stays bit-identical to the original
// sample-by-sample prediction loop.
func AccumTerm(dst, src []float64, c, mean, std float64) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
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

// AddScaled32 adds w·src into dst element-wise: the float32 kernel's folded
// form of a regression term (the mean and std are folded into w and the
// step's bias ahead of time).
func AddScaled32(dst, src []float32, w float32) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] += w * x
	}
}

// Lincomb32x4 writes a four-term linear combination plus bias across a whole
// chain vector: dst[i] = bias + w0·s0[i] + w1·s1[i] + w2·s2[i] + w3·s3[i].
// Fusing the bias fill with the first four terms saves the separate Fill32
// pass and three of the four dst read-modify-write round trips that the
// term-at-a-time AddScaled32 form would pay.
func Lincomb32x4(dst, s0, s1, s2, s3 []float32, w0, w1, w2, w3, bias float32) {
	n := len(dst)
	dst, s0, s1, s2, s3 = dst[:n], s0[:n], s1[:n], s2[:n], s3[:n]
	for i := range dst {
		dst[i] = bias + w0*s0[i] + w1*s1[i] + w2*s2[i] + w3*s3[i]
	}
}

// AddScaled32x4 adds four scaled terms into dst element-wise:
// dst[i] += w0·s0[i] + w1·s1[i] + w2·s2[i] + w3·s3[i]. The four-feature
// fusion quarters the dst traffic of four AddScaled32 calls.
func AddScaled32x4(dst, s0, s1, s2, s3 []float32, w0, w1, w2, w3 float32) {
	n := len(dst)
	dst, s0, s1, s2, s3 = dst[:n], s0[:n], s1[:n], s2[:n], s3[:n]
	for i := range dst {
		dst[i] += w0*s0[i] + w1*s1[i] + w2*s2[i] + w3*s3[i]
	}
}

// Widen copies a float32 vector into a float64 one (dst and src must be the
// same length), bridging the float32 kernel's draws back into the float64
// test statistics.
func Widen(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float64(x)
	}
}
