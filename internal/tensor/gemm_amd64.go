package tensor

// gemmRow is the row kernel behind MatMulInto, in assembly (gemm_amd64.s).
// It writes c = a × b for one row a of the left operand, gemmRowGeneric bit
// for bit; the caller guarantees len(b) >= len(a)*len(c).
//
//go:noescape
func gemmRow(c, a, b []float32)
