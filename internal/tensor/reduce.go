package tensor

import (
	"math"
)

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float32 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float32(len(t.data))
}

// Max returns the maximum element and its flat index. It panics on empty
// tensors.
func (t *Tensor) Max() (float32, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, bestIdx := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bestIdx = v, i+1
		}
	}
	return best, bestIdx
}

// Norm returns the Euclidean (L2) norm of all elements.
func (t *Tensor) Norm() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// L2NormalizeRows scales each row of a 2-D tensor to unit Euclidean norm in
// place. Zero rows are left unchanged. Used by CORE-style models that operate
// in a cosine-similarity representation space.
func (t *Tensor) L2NormalizeRows() {
	if len(t.shape) != 2 {
		panic("tensor: L2NormalizeRows on non-2D tensor")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		var s float64
		for _, v := range row {
			s += float64(v) * float64(v)
		}
		if s == 0 {
			continue
		}
		inv := float32(1 / math.Sqrt(s))
		for j := range row {
			row[j] *= inv
		}
	}
}

// Softmax normalises a 1-D tensor in place into a probability distribution
// using the numerically stable max-shift formulation.
func (t *Tensor) Softmax() {
	softmaxSlice(t.data)
}

// SoftmaxRows applies Softmax independently to each row of a 2-D tensor in
// place.
func (t *Tensor) SoftmaxRows() {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRows on non-2D tensor")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		softmaxSlice(t.data[i*n : (i+1)*n])
	}
}

func softmaxSlice(row []float32) {
	if len(row) == 0 {
		return
	}
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// LayerNorm normalises a 1-D tensor in place to zero mean and unit variance,
// then applies the affine transform gamma⊙x + beta. gamma and beta must have
// the same length as t; eps stabilises the variance.
func (t *Tensor) LayerNorm(gamma, beta *Tensor, eps float32) {
	layerNormSlice(t.data, gamma.data, beta.data, eps)
}

// LayerNormRows applies LayerNorm to each row of a 2-D tensor in place.
func (t *Tensor) LayerNormRows(gamma, beta *Tensor, eps float32) {
	if len(t.shape) != 2 {
		panic("tensor: LayerNormRows on non-2D tensor")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		layerNormSlice(t.data[i*n:(i+1)*n], gamma.data, beta.data, eps)
	}
}

func layerNormSlice(row, gamma, beta []float32, eps float32) {
	if len(row) != len(gamma) || len(row) != len(beta) {
		panic("tensor: LayerNorm parameter length mismatch")
	}
	var mean float64
	for _, v := range row {
		mean += float64(v)
	}
	mean /= float64(len(row))
	var variance float64
	for _, v := range row {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(len(row))
	inv := 1 / math.Sqrt(variance+float64(eps))
	for i, v := range row {
		row[i] = float32((float64(v)-mean)*inv)*gamma[i] + beta[i]
	}
}

// ArgSortDesc returns the indices that would sort a 1-D tensor in descending
// order, NaN below every number and equal values (NaNs among themselves
// too) by ascending index: topk's order. Used by the exhaustive (non-heap)
// top-k baseline.
func (t *Tensor) ArgSortDesc() []int {
	idx := make([]int, len(t.data))
	for i := range idx {
		idx[i] = i
	}
	// Simple binary-insertion-free sort via sort.Slice would import sort;
	// use a local pdq-style fallback: delegate to sortIdx.
	sortIdx(idx, t.data)
	return idx
}

// sortIdx sorts idx so that data[idx[i]] is non-increasing, using heapsort
// (in-place, O(n log n), no recursion) to keep the package dependency-free.
func sortIdx(idx []int, data []float32) {
	n := len(idx)
	less := func(a, b int) bool { // max-heap on ascending order -> descending output
		x, y := data[idx[a]], data[idx[b]]
		if xNaN, yNaN := x != x, y != y; xNaN != yNaN {
			return xNaN
		}
		return x < y || (!(x > y) && idx[a] > idx[b])
	}
	var siftDown func(lo, hi int)
	siftDown = func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child >= hi {
				return
			}
			if child+1 < hi && less(child, child+1) {
				child++
			}
			if !less(root, child) {
				return
			}
			idx[root], idx[child] = idx[child], idx[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		siftDown(0, i)
	}
	// heapsort with a max-heap yields ascending order; reverse for descending.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
}
