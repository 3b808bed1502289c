// Package tensor implements dense float32 tensors and the linear-algebra
// kernels needed for inference with session-based recommendation models.
//
// Tensors are row-major and contiguous. The package is deliberately small:
// it provides exactly the operations used by the model encoders in
// internal/model (matrix products, element-wise arithmetic, softmax,
// layer normalisation and friends), implemented with cache-friendly loops
// and no external dependencies.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float32 tensor.
//
// The zero value is not useful; construct tensors with New, FromSlice or
// one of the operation helpers. Data is always contiguous: the element at
// index (i0, i1, ..., ik) lives at offset i0*stride0 + i1*stride1 + ... where
// strides are derived from the shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Bind points t at data with the given shape, as FromSlice does, but reuses
// t's own header, so a workspace can carve one buffer into per-call views
// without allocating. It panics if len(data) does not match the shape.
func (t *Tensor) Bind(data []float32, shape ...int) {
	// Only t.shape reaches checkShape and fmt, so shape does not escape and
	// the call allocates nothing once t.shape has room.
	t.shape = append(t.shape[:0], shape...)
	if n := checkShape(t.shape); len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), t.shape, n))
	}
	t.data = data
}

// Grow returns buf[:n] when buf has the capacity, and a new zeroed slice of
// length n otherwise: the lazily grown scratch of a workspace. Values kept
// from an earlier call are stale, so callers write before they read.
func Grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-dim tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Reshape returns a view of t with a new shape. The total element count must
// be unchanged. The view shares data with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.data, src.data)
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Row returns a view of row i of a 2-D tensor as a 1-D tensor sharing data.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row on non-2D tensor")
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols : (i+1)*cols]}
}

// Rows returns a view of rows [from, to) of a 2-D tensor.
func (t *Tensor) Rows(from, to int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Rows on non-2D tensor")
	}
	if from < 0 || to > t.shape[0] || from > to {
		panic(fmt.Sprintf("tensor: Rows[%d:%d) out of range for %d rows", from, to, t.shape[0]))
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{to - from, cols}, data: t.data[from*cols : to*cols : to*cols]}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether all elements of t and u are within tol of each
// other. Tensors of different shape are never close.
func (t *Tensor) AllClose(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i])-float64(u.data[i])) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}

// String renders small tensors for debugging; large tensors are summarised.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%v %v %v ... %v]", t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1])
	}
	return b.String()
}
