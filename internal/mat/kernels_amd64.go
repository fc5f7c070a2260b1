package mat

// accumTerm is AccumTerm's body over equal-length vectors: an SSE2 loop
// (SUBPD, MULPD, DIVPD, ADDPD) over two chains at a time with a scalar tail.
// SSE2 is amd64's baseline, so it needs no CPU-feature check.
//
//go:noescape
func accumTerm(dst, src []float64, c, mean, std float64)
