//go:build !amd64

package tensor

// gemmRow is the row kernel behind MatMulInto. Without an assembly kernel
// for this platform it is the reference loop itself.
func gemmRow(c, a, b []float32) {
	gemmRowGeneric(c, a, b)
}
