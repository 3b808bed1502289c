package topk

import (
	"fmt"
	"runtime"
	"sync"

	"etude/internal/tensor"
)

// blockRows is how many catalog rows are scored before their scores go
// through the heap: a 4 KB buffer that stays in L1 while the rows stream
// past, in place of a C-length score vector written to memory and read back.
const blockRows = 1024

// splitBytes is the least catalog memory each core is given before TopK
// spreads a scan over several, so a catalog splits from 2×splitBytes up.
// Measured on the 2-vCPU benchmark host with BenchmarkTopKSplit (d = 32,
// k = 21, catalog warm, two ranges against one, one caller, two runs):
// 1 MB in all takes 43-54 µs against 27-38 µs — starting and waking the
// second goroutine costs 30-50 µs here — 2 MB ties (92-102 µs against
// 90-93), 4 MB runs in 0.85 of the time, 8 MB in 0.7, 16 MB in 0.6,
// 32 MB in 0.6 and 128 MB in 0.5. With two concurrent callers, a saturated
// server, two ranges cost the same as one at every size (128 MB: 14.3-15.4
// ms against 15.2-16.1 ms per call). The constant sits at four times the
// tie, where the scan is near a millisecond and the gain no longer depends
// on how fast this host wakes a core; below it requests run side by side
// instead.
const splitBytes = 8 << 20

// rangeScan is the scratch of one fused scan over a contiguous row range.
type rangeScan struct {
	block [blockRows]float32
	heap  minHeap
	part  []Result // the range's list when it is one of several; reused
}

// scan returns the top-k of rows [from, to) of the row-major matrix items,
// best first, under global row ids: each block is scored with the row
// kernel and streamed through the heap while it is still in L1. The list is
// written to out when that has room for it, to a new slice otherwise.
func (r *rangeScan) scan(items, q []float32, k, from, to int, out []Result) []Result {
	d := len(q)
	r.heap.reset(min(k, to-from))
	for lo := from; lo < to; lo += blockRows {
		hi := min(lo+blockRows, to)
		scores := r.block[:hi-lo]
		tensor.DotRows(scores, items[lo*d:hi*d], q)
		r.heap.offerRun(int64(lo), scores)
	}
	n := len(r.heap.items)
	if cap(out) < n {
		out = make([]Result, n)
	}
	return r.heap.drainDescending(out[:n])
}

// checkScan panics unless rows [from, to) of items can be scored against
// query, and returns the catalog size.
func checkScan(items, query *tensor.Tensor, from, to int) int {
	if items.Dims() != 2 || query.Dims() != 1 || items.Dim(1) != query.Dim(0) {
		panic(fmt.Sprintf("topk: cannot score items %v against query %v", items.Shape(), query.Shape()))
	}
	c := items.Dim(0)
	if from < 0 || from > to || to > c {
		panic(fmt.Sprintf("topk: rows [%d,%d) outside catalog of %d items", from, to, c))
	}
	return c
}

// Scan is the exact MIPS stage over rows [from, to) of items (a [C,d]
// embedding matrix): the k rows with the highest inner product with query,
// in descending score order, ties towards the lower id, under their global
// row ids. Scoring and selection are fused — no score vector is
// materialised — and the result equals
// SelectFromScores(MatVec(items.Rows(from, to), query), k) with ids rebased
// by from. Scan runs on the calling goroutine only, so callers that already
// spread ranges over goroutines (internal/shard) do not nest parallelism.
func Scan(items, query *tensor.Tensor, k, from, to int) []Result {
	checkScan(items, query, from, to)
	if k <= 0 {
		return nil
	}
	var r rangeScan
	return r.scan(items.Data(), query.Data(), k, from, to, nil)
}

// TopK scores all rows of items (an [C,d] embedding matrix) against query (a
// length-d vector) and returns the k highest-scoring items in descending
// score order. If k exceeds C, all C items are returned. It is
// Scanner.TopK with scratch allocated for the call.
func TopK(items, query *tensor.Tensor, k int) []Result {
	var s Scanner
	return s.TopK(items, query, k)
}

// Scanner is the reusable scratch of TopK — block buffers, heaps, per-range
// lists and the merge state — so that a served request allocates only the
// list it returns. The zero value is ready; a Scanner serves one call at a
// time.
type Scanner struct {
	ranges []*rangeScan
	parts  [][]Result
	merge  merger
	wg     sync.WaitGroup

	// forceRanges overrides the range count; tests set it.
	forceRanges int
}

// TopK is the package-level TopK on this scratch. A catalog of at least
// two cores' worth of splitBytes is cut into contiguous row ranges, one per
// core: range 0 is scanned on the calling goroutine, the others on
// goroutines started and joined within the call, and the per-range lists
// are merged exactly as MergePartial does.
func (s *Scanner) TopK(items, query *tensor.Tensor, k int) []Result {
	c := checkScan(items, query, 0, items.Dim(0))
	if k <= 0 {
		return nil
	}
	n := s.forceRanges
	if n == 0 {
		if n = c * query.Len() * 4 / splitBytes; n > 1 {
			n = min(n, runtime.GOMAXPROCS(0))
		}
	}
	n = max(1, min(n, c))
	for len(s.ranges) < n {
		s.ranges = append(s.ranges, new(rangeScan))
	}
	data, q := items.Data(), query.Data()
	if n == 1 {
		return s.ranges[0].scan(data, q, k, 0, c, nil)
	}
	s.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		r, from, to := s.ranges[i], c*i/n, c*(i+1)/n
		go func() {
			defer s.wg.Done()
			r.part = r.scan(data, q, k, from, to, r.part)
		}()
	}
	r := s.ranges[0]
	r.part = r.scan(data, q, k, 0, c/n, r.part)
	s.wg.Wait()
	s.parts = s.parts[:0]
	for _, r := range s.ranges[:n] {
		s.parts = append(s.parts, r.part)
	}
	return s.merge.run(s.parts, k)
}
