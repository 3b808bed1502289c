package tensor

// dotRows is the row kernel behind Dot, DotRows and MatVecInto, in assembly
// (dot_amd64.s). It writes dst[r] = dotGeneric(a[r*d:(r+1)*d], q), d = len(q),
// bit for bit; the caller guarantees len(a) >= len(dst)*len(q).
//
//go:noescape
func dotRows(dst, a, q []float32)
