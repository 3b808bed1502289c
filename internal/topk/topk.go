// Package topk implements the maximum-inner-product search (MIPS) stage that
// dominates inference latency in session-based recommendation models.
//
// Given the learned d-dimensional representations of all C catalog items and
// a d-dimensional session representation, every model in this repository
// scores all items with an inner product and returns the k best. This is the
// O(C·(d + log k)) term from the paper's complexity analysis: C·d for the
// scoring pass and C·log k for maintaining the best-k heap.
package topk

import "etude/internal/tensor"

// Result is one recommended item with its model score.
type Result struct {
	Item  int64   // catalog item identifier (row in the embedding matrix)
	Score float32 // inner-product score
}

// ranks reports whether (sa, a) comes before (sb, b) in the one order every
// selection and merge in this package produces: higher score first, NaN
// below every number, and the lower item id first among equal scores or
// among NaNs.
func ranks(sa float32, a int64, sb float32, b int64) bool {
	if sa > sb {
		return true
	}
	if sa < sb {
		return false
	}
	if aNaN, bNaN := sa != sa, sb != sb; aNaN != bNaN {
		return bNaN
	}
	return a < b
}

// SelectFromScores returns the k largest entries of scores in descending
// order using a bounded min-heap: O(C log k) instead of O(C log C) for a full
// sort. Ties are broken towards the lower item id for deterministic output,
// and NaN ranks below every number.
func SelectFromScores(scores []float32, k int) []Result {
	if k <= 0 {
		return nil
	}
	var h minHeap
	h.reset(min(k, len(scores)))
	h.offerRun(0, scores)
	return h.drainDescending(make([]Result, len(h.items)))
}

// SelectFromScoresSorted is the exhaustive baseline used by the top-k
// ablation benchmark: it fully sorts the score vector (O(C log C)) and takes
// the first k. Results are identical to SelectFromScores.
func SelectFromScoresSorted(scores []float32, k int) []Result {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	t := tensor.FromSlice(scores, len(scores))
	idx := t.ArgSortDesc()
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		out[i] = Result{Item: int64(idx[i]), Score: scores[idx[i]]}
	}
	return out
}

// minHeap is a fixed-capacity binary min-heap over (item, score) pairs. The
// root holds the current k-th best, so a candidate only enters the heap when
// it ranks before the root. The zero value is an empty heap of capacity 0;
// reset sizes it and keeps the storage for the next selection.
type minHeap struct {
	items  []int64
	scores []float32
	cap    int
}

func (h *minHeap) reset(k int) {
	if cap(h.items) < k {
		h.items, h.scores = make([]int64, 0, k), make([]float32, 0, k)
	}
	h.items, h.scores, h.cap = h.items[:0], h.scores[:0], k
}

// less is the eviction order, the inverse of ranks: the entry that ranks
// last is the smallest and sits at the root.
func (h *minHeap) less(a, b int) bool {
	return ranks(h.scores[b], h.items[b], h.scores[a], h.items[a])
}

func (h *minHeap) swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
}

func (h *minHeap) offer(item int64, score float32) {
	if len(h.items) < h.cap {
		h.items = append(h.items, item)
		h.scores = append(h.scores, score)
		h.up(len(h.items) - 1)
		return
	}
	if !ranks(score, item, h.scores[0], h.items[0]) {
		return
	}
	h.items[0], h.scores[0] = item, score
	h.down(0)
}

// offerRun offers scores[i] as item first+i for every i, in ascending item
// order, to a heap whose entries all have lower ids than first. Then a
// candidate never wins a tie, so once the heap is full and its root is a
// number (after which it holds no NaN: NaN ranks last, so one would be the
// root) the test per candidate is the single compare s > root, false for
// NaN candidates too, and firstAbove runs it over the scores up to the next
// candidate that enters.
func (h *minHeap) offerRun(first int64, scores []float32) {
	if h.cap == 0 {
		return
	}
	i := 0
	for ; i < len(scores) && (len(h.items) < h.cap || h.scores[0] != h.scores[0]); i++ {
		h.offer(first+int64(i), scores[i])
	}
	if i == len(scores) {
		return
	}
	for i = firstAbove(scores, i, h.scores[0]); i < len(scores); i = firstAbove(scores, i+1, h.scores[0]) {
		h.items[0], h.scores[0] = first+int64(i), scores[i]
		h.down(0)
	}
}

// firstAboveGeneric returns the least index j >= i with s[j] > root, or
// len(s) if there is none. It is firstAbove's definition: the fallback on
// platforms without the assembly kernel and the reference the tests compare
// it against.
func firstAboveGeneric(s []float32, i int, root float32) int {
	for ; i < len(s); i++ {
		if s[i] > root {
			return i
		}
	}
	return len(s)
}

func (h *minHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *minHeap) down(i int) {
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && h.less(child+1, child) {
			child++
		}
		if !h.less(child, i) {
			return
		}
		h.swap(i, child)
		i = child
	}
}

// drainDescending empties the heap into out, which has one element per heap
// entry, sorted from best to worst.
func (h *minHeap) drainDescending(out []Result) []Result {
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = Result{Item: h.items[0], Score: h.scores[0]}
		last := len(h.items) - 1
		h.swap(0, last)
		h.items = h.items[:last]
		h.scores = h.scores[:last]
		h.down(0)
	}
	return out
}
