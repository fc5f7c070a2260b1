//go:build !amd64

package mat

// accumTerm is AccumTerm's body over equal-length vectors.
func accumTerm(dst, src []float64, c, mean, std float64) {
	accumTermGo(dst, src, c, mean, std)
}
