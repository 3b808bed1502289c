package tensor

import "fmt"

// MatMul returns a × b for 2-D tensors, a new [m,n] tensor where a is [m,k]
// and b is [k,n]. It panics on shape mismatch.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a × b, reusing dst's storage. dst must be [m,n]
// for a [m,k] and b [k,n]. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, dd := a.data, b.data[:k*n], dst.data
	for i := 0; i < m; i++ {
		gemmRow(dd[i*n:(i+1)*n], ad[i*k:(i+1)*k], bd)
	}
}

// gemmRowGeneric fixes the order of every matrix product in this
// repository: c = a × b for one row a (length k) of the left operand and b,
// k rows of len(c) columns, row-major. Each output starts at +0.0 and, for l
// ascending, skips a[l] == ±0 and otherwise adds a[l]·b[l][j] — a multiply
// rounded, then an add rounded, never fused. The i-k-j order streams over
// contiguous rows of b and c, the cache-friendly order for row-major data.
// Responses are compared bit for bit across serving paths, so the platform
// kernel (gemm_amd64.s) reproduces this order exactly; this loop is the
// fallback elsewhere and the reference the tests compare against.
func gemmRowGeneric(c, a, b []float32) {
	n := len(c)
	clear(c)
	if n == 0 {
		return
	}
	for l, av := range a {
		if av == 0 {
			continue
		}
		axpy(av, b[l*n:(l+1)*n], c)
	}
}

// axpy computes y += a*x over equal-length, non-empty slices. Split out so
// the compiler can eliminate bounds checks and unroll.
func axpy(a float32, x, y []float32) {
	_ = y[len(x)-1]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// MatVec returns a × x for a [m,k] matrix and a length-k vector, a length-m
// vector.
func MatVec(a, x *Tensor) *Tensor {
	out := New(a.shape[0])
	MatVecInto(out, a, x)
	return out
}

// MatVecInto computes dst = a × x. dst must have length m for a [m,k]
// matrix and a length-k vector x.
func MatVecInto(dst, a, x *Tensor) {
	if len(a.shape) != 2 || len(x.shape) != 1 {
		panic("tensor: MatVec requires a 2-D matrix and a 1-D vector")
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dims [%d %d] × %d", m, k, x.shape[0]))
	}
	if len(dst.shape) != 1 || dst.shape[0] != m {
		panic("tensor: MatVec dst shape mismatch")
	}
	dotRows(dst.data, a.data, x.data)
}

// DotRows writes dst[r] = Dot(a[r*d:(r+1)*d], q) for d = len(q): a run of
// rows of a row-major matrix scored against one query. It is the slice form
// of MatVecInto, for callers that walk a matrix block by block without
// building a view per block. len(a) must be len(dst)*len(q).
func DotRows(dst, a, q []float32) {
	if len(a) != len(dst)*len(q) {
		panic(fmt.Sprintf("tensor: DotRows %d values for %d rows of %d", len(a), len(dst), len(q)))
	}
	dotRows(dst, a, q)
}

// Dot returns the inner product of two equal-length slices, in the
// accumulation order of dotGeneric on every platform.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s [1]float32
	dotRows(s[:], x, y)
	return s[0]
}

// dotGeneric fixes the accumulation order every inner product in this
// repository has: four partial sums over elements i, i+1, i+2, i+3 of each
// group of four, added as ((s0+s1)+s2)+s3, then the remaining elements in
// order. Responses are compared bit for bit across serving paths, so a
// platform kernel (dot_amd64.s) reproduces this order exactly; this loop is
// the fallback elsewhere and the reference the tests compare against.
func dotGeneric(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Transpose returns the transpose of a 2-D tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}

// Outer returns the outer product x ⊗ y as an [len(x), len(y)] tensor.
func Outer(x, y *Tensor) *Tensor {
	if len(x.shape) != 1 || len(y.shape) != 1 {
		panic("tensor: Outer requires 1-D operands")
	}
	m, n := x.shape[0], y.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		axpy(x.data[i], y.data, out.data[i*n:(i+1)*n])
	}
	return out
}
