package topk

import (
	"fmt"
	"runtime"
	"sync"

	"etude/internal/tensor"
)

// blockRows is how many catalog rows a one-query scan scores before their
// scores go through the heap: a 4 KB buffer that stays in L1 while the rows
// stream past, in place of a C-length score vector written to memory and
// read back.
const blockRows = 1024

// subBlockRows is how many rows a scan of several queries scores against
// every query before it moves on: 18 KB of rows at d = 18, which the second
// and later queries read from L1.
const subBlockRows = 256

// splitBytes is the least scoring work each core is given before a scan is
// spread over several: a scan of B queries over a [C,d] catalog scores
// B·C·d·4 bytes, and it is cut into one range per splitBytes of that, so it
// splits from 2×splitBytes up. TopK is the case B = 1. Measured on the
// 2-vCPU benchmark host with BenchmarkTopKSplit (DESIGN.md has the table):
// starting and waking the second goroutine costs 30-50 µs here, and at two
// queries two ranges lose up to 4 MB of work (1.2 of one range's time) and
// win from 8 MB (0.85; the 7.2 MB catalog of batch_100k in 0.6). With two
// concurrent callers, a saturated server, two ranges cost about the same as
// one.
const splitBytes = 4 << 20

// rangeScan is the scratch of one fused scan over a contiguous row range:
// a heap per query, and the range's lists when it is one of several. A
// range past the first runs on a goroutine of its own: its arguments are
// set in the fields below and helper, made once with the range, scans with
// them, so starting the goroutine allocates nothing.
type rangeScan struct {
	block [blockRows]float32
	heaps []minHeap
	parts [][]Result

	items, queries []float32
	b, k, from, to int
	done           *sync.WaitGroup
	helper         func()
}

func newRangeScan() *rangeScan {
	r := new(rangeScan)
	r.helper = func() {
		defer r.done.Done()
		r.scan(r.items, r.queries, r.b, r.k, r.from, r.to)
		r.drain(r.b)
	}
	return r
}

// scan offers rows [from, to) of the row-major matrix items to the first b
// heaps under global row ids, heap j scoring against query j of the
// row-major [b,d] queries. Each block is scored with the row kernel and
// streamed through the heaps while it is still in L1; with several queries
// the blocks are sub-blocks, so their rows stay in L1 from the first query
// to the last.
func (r *rangeScan) scan(items, queries []float32, b, k, from, to int) {
	d := len(queries) / b
	for len(r.heaps) < b {
		r.heaps = append(r.heaps, minHeap{})
	}
	heaps := r.heaps[:b]
	for j := range heaps {
		heaps[j].reset(min(k, to-from))
	}
	step := blockRows
	if b > 1 {
		step = subBlockRows
	}
	for lo := from; lo < to; lo += step {
		hi := min(lo+step, to)
		rows, scores := items[lo*d:hi*d], r.block[:hi-lo]
		for j := range heaps {
			tensor.DotRows(scores, rows, queries[j*d:(j+1)*d])
			heaps[j].offerRun(int64(lo), scores)
		}
	}
}

// list empties heap j into a new list, best first.
func (r *rangeScan) list(j int) []Result {
	h := &r.heaps[j]
	return h.drainDescending(make([]Result, len(h.items)))
}

// drain empties the first b heaps into the range's reused lists.
func (r *rangeScan) drain(b int) {
	for len(r.parts) < b {
		r.parts = append(r.parts, nil)
	}
	for j := range b {
		h := &r.heaps[j]
		n := len(h.items)
		if cap(r.parts[j]) < n {
			r.parts[j] = make([]Result, n)
		}
		r.parts[j] = h.drainDescending(r.parts[j][:n])
	}
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
	r.scan(items.Data(), query.Data(), 1, k, from, to)
	return r.list(0)
}

// TopK scores all rows of items (an [C,d] embedding matrix) against query (a
// length-d vector) and returns the k highest-scoring items in descending
// score order. If k exceeds C, all C items are returned. It is
// Scanner.TopK with scratch allocated for the call.
func TopK(items, query *tensor.Tensor, k int) []Result {
	var s Scanner
	return s.TopK(items, query, k)
}

// Scanner is the reusable scratch of TopK and TopKBatch — block buffers,
// heaps, per-range lists and the merge state — so that a served request
// allocates only the lists it returns. The zero value is ready; a Scanner
// serves one call at a time.
type Scanner struct {
	ranges []*rangeScan
	parts  [][]Result
	merge  merger
	wg     sync.WaitGroup
	query  tensor.Tensor // TopK's query as a [1,d] batch
	lists  [][]Result    // TopK's one list

	// forceRanges overrides the range count; tests set it.
	forceRanges int
}

// TopK is the package-level TopK on this scratch: TopKBatch for a batch of
// one query.
func (s *Scanner) TopK(items, query *tensor.Tensor, k int) []Result {
	checkScan(items, query, 0, items.Dim(0))
	s.query.Bind(query.Data(), 1, query.Len())
	s.lists = s.TopKBatch(s.lists[:0], items, &s.query, k)
	out := s.lists[0]
	s.lists[0] = nil
	return out
}

// TopKBatch is TopK for a batch of queries (a [B,d] matrix): it appends to
// dst one list per query, list j the k rows of items with the highest inner
// product with query j, and returns the extended slice. The catalog is read
// once for the batch, not once per query. A catalog of at least two cores'
// worth of the batch's work, B·C·d·4 bytes, is cut by the split rule into
// contiguous row ranges: range 0 is scanned on the calling goroutine, the
// others on goroutines started and joined within the call, and each
// query's per-range lists are merged exactly as MergePartial does. List j
// is bit for bit what TopK returns for query j alone: neither the block
// size nor the range count, which both depend on B, changes a score or the
// order (DESIGN.md, "One read per batch"). A warm Scanner allocates only
// the B lists it appends.
func (s *Scanner) TopKBatch(dst [][]Result, items, queries *tensor.Tensor, k int) [][]Result {
	if items.Dims() != 2 || queries.Dims() != 2 || items.Dim(1) != queries.Dim(1) {
		panic(fmt.Sprintf("topk: cannot score items %v against queries %v", items.Shape(), queries.Shape()))
	}
	c, b := items.Dim(0), queries.Dim(0)
	if k <= 0 || b == 0 {
		for range b {
			dst = append(dst, nil)
		}
		return dst
	}
	n := s.split(b, c, queries.Dim(1))
	for len(s.ranges) < n {
		s.ranges = append(s.ranges, newRangeScan())
	}
	data, q := items.Data(), queries.Data()
	if n == 1 {
		r := s.ranges[0]
		r.scan(data, q, b, k, 0, c)
		for j := range b {
			dst = append(dst, r.list(j))
		}
		return dst
	}
	s.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		r := s.ranges[i]
		r.items, r.queries, r.b, r.k, r.from, r.to, r.done = data, q, b, k, c*i/n, c*(i+1)/n, &s.wg
		go r.helper()
	}
	r := s.ranges[0]
	r.scan(data, q, b, k, 0, c/n)
	r.drain(b)
	s.wg.Wait()
	for j := range b {
		s.parts = s.parts[:0]
		for _, r := range s.ranges[:n] {
			s.parts = append(s.parts, r.parts[j])
		}
		dst = append(dst, s.merge.run(s.parts, k))
	}
	return dst
}

// split is the split rule: the number of contiguous row ranges a scan of b
// queries over c rows of width d is cut into, one per splitBytes of the
// b·c·d·4 bytes it scores, at most one per core and never more than rows.
func (s *Scanner) split(b, c, d int) int {
	n := s.forceRanges
	if n == 0 {
		if n = b * c * d * 4 / splitBytes; n > 1 {
			n = min(n, runtime.GOMAXPROCS(0))
		}
	}
	return max(1, min(n, c))
}
