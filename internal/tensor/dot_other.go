//go:build !amd64

package tensor

// dotRows is the row kernel behind Dot, DotRows and MatVecInto. Without an
// assembly kernel for this platform it is the reference loop itself.
func dotRows(dst, a, q []float32) {
	d := len(q)
	for r := range dst {
		dst[r] = dotGeneric(a[r*d:(r+1)*d], q)
	}
}
