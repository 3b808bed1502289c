package topk

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"etude/internal/tensor"
)

// reference is the two-pass MIPS the fused scan replaces: materialise the
// scores of rows [from, to), select, rebase the ids.
func reference(items, query *tensor.Tensor, k, from, to int) []Result {
	recs := SelectFromScores(tensor.MatVec(items.Rows(from, to), query).Data(), k)
	for i := range recs {
		recs[i].Item += int64(from)
	}
	return recs
}

func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Item != want[i].Item || !sameScore(got[i].Score, want[i].Score) {
			t.Fatalf("%s: result[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func randCatalog(rng *rand.Rand, c, d int) (items, query *tensor.Tensor) {
	items, query = tensor.New(c, d), tensor.New(d)
	for i := range items.Data() {
		items.Data()[i] = float32(rng.NormFloat64())
	}
	for i := range query.Data() {
		query.Data()[i] = float32(rng.NormFloat64())
	}
	return items, query
}

// The fused scan, alone and split over any number of ranges, returns what
// scoring into a vector and selecting from it returns — for catalogs below,
// at and off multiples of the block size, every k, duplicate rows (ties
// across block and range boundaries), NaN rows and an all-zero query, where
// the lowest ids must win.
func TestFusedScanMatchesScoreThenSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 7
	for _, c := range []int{1, 337, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 300} {
		items, query := randCatalog(rng, c, d)
		dups := items.Clone()
		for r := 0; r < c; r++ { // every row is one of five
			copy(dups.Row(r).Data(), items.Row(r%5).Data())
		}
		nans := items.Clone()
		for r := 0; r < c; r += 3 {
			nans.Row(r).Data()[r%d] = float32(math.NaN())
		}
		variants := []struct {
			name         string
			items, query *tensor.Tensor
		}{
			{"random", items, query},
			{"duplicate rows", dups, query},
			{"nan rows", nans, query},
			{"zero query", items, tensor.New(d)},
		}
		for _, v := range variants {
			for _, k := range []int{0, 1, 21, c, c + 5} {
				what := fmt.Sprintf("C=%d %s k=%d", c, v.name, k)
				want := reference(v.items, v.query, k, 0, c)
				sameResults(t, what+" Scan", Scan(v.items, v.query, k, 0, c), want)
				sameResults(t, what+" TopK", TopK(v.items, v.query, k), want)
				for _, n := range []int{1, 2, 3, 7} {
					s := Scanner{forceRanges: n}
					sameResults(t, fmt.Sprintf("%s ranges=%d", what, n), s.TopK(v.items, v.query, k), want)
					// A second call on the same scratch, with another k.
					sameResults(t, fmt.Sprintf("%s ranges=%d reuse", what, n),
						s.TopK(v.items, v.query, 3), reference(v.items, v.query, 3, 0, c))
				}
			}
		}
		if v := variants[3]; c >= 21 {
			for i, r := range TopK(v.items, v.query, 21) {
				if r.Item != int64(i) || r.Score != 0 {
					t.Fatalf("C=%d zero query: result[%d] = %+v, want item %d score 0", c, i, r, i)
				}
			}
		}
	}
}

// A sub-range keeps global ids, and per-range lists merge into the full
// answer — what internal/shard builds on.
func TestScanRangeKeepsGlobalIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, k := 2*blockRows+77, 10
	items, query := randCatalog(rng, c, 8)
	full := TopK(items, query, k)
	for _, cuts := range [][]int{{0, c}, {0, 1, c}, {0, 500, blockRows, c}, {0, c - 1, c}, {0, 0, c}} {
		var partials [][]Result
		for i := 0; i+1 < len(cuts); i++ {
			from, to := cuts[i], cuts[i+1]
			part := Scan(items, query, k, from, to)
			sameResults(t, fmt.Sprintf("rows [%d,%d)", from, to), part, reference(items, query, k, from, to))
			partials = append(partials, part)
		}
		sameResults(t, fmt.Sprintf("merged cuts %v", cuts), MergePartial(partials, k), full)
	}
}

func TestScanRejectsBadInput(t *testing.T) {
	items, query := tensor.New(4, 2), tensor.New(2)
	for name, f := range map[string]func(){
		"query of another dimension": func() { TopK(items, tensor.New(3), 2) },
		"range past the catalog":     func() { Scan(items, query, 2, 1, 5) },
		"inverted range":             func() { Scan(items, query, 2, 3, 2) },
		"negative from":              func() { Scan(items, query, 2, -1, 2) },
		"1-D items":                  func() { TopK(query, query, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
}

// The split engages by catalog bytes and core count alone.
func TestSplitRule(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one core: TopK never splits")
	}
	d := 32
	small, query := tensor.New(2*splitBytes/(4*d)-1, d), tensor.New(d)
	large := tensor.New(2*splitBytes/(4*d), d)
	var s Scanner
	s.TopK(small, query, 3)
	if len(s.ranges) != 1 {
		t.Fatalf("a catalog below 2×splitBytes used %d ranges", len(s.ranges))
	}
	s.TopK(large, query, 3)
	if len(s.ranges) != 2 {
		t.Fatalf("a catalog of 2×splitBytes used %d ranges, want 2", len(s.ranges))
	}
	// The work is the batch's: two queries over half the catalog split.
	half, pair := tensor.New(splitBytes/(4*d), d), tensor.New(2, d)
	s = Scanner{}
	s.TopKBatch(nil, half, pair.Rows(0, 1), 3)
	if len(s.ranges) != 1 {
		t.Fatalf("one query over splitBytes used %d ranges", len(s.ranges))
	}
	s.TopKBatch(nil, half, pair, 3)
	if len(s.ranges) != 2 {
		t.Fatalf("two queries over splitBytes used %d ranges, want 2", len(s.ranges))
	}
}

// A warm Scanner allocates only the returned lists — one for TopK, B for
// TopKBatch — not heaps, partial lists, merge state or the goroutines'
// closures.
func TestScannerAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items, query := randCatalog(rng, 5000, 8)
	queries := tensor.New(4, 8)
	for i := range queries.Data() {
		queries.Data()[i] = float32(rng.NormFloat64())
	}
	for _, n := range []int{1, 3} {
		s := Scanner{forceRanges: n}
		s.TopK(items, query, 21)
		if got := testing.AllocsPerRun(50, func() { s.TopK(items, query, 21) }); got > 1 {
			t.Errorf("TopK ranges=%d: %v allocations per call, want at most 1", n, got)
		}
		for _, b := range []int{1, 2, 4} {
			qs := queries.Rows(0, b)
			lists := s.TopKBatch(nil, items, qs, 21)
			if got := testing.AllocsPerRun(50, func() { lists = s.TopKBatch(lists[:0], items, qs, 21) }); got > float64(b) {
				t.Errorf("TopKBatch B=%d ranges=%d: %v allocations per call, want at most %d", b, n, got, b)
			}
		}
	}
}

func benchCatalog(bytes, d int) (items, query *tensor.Tensor) {
	return randCatalog(rand.New(rand.NewSource(1)), bytes/(4*d), d)
}

// BenchmarkTopKSplit is the measurement behind splitBytes: one range against
// two, by catalog size and batch size B (TopK at B = 1, TopKBatch above; the
// work is B times the catalog), from one caller and from two concurrent ones.
func BenchmarkTopKSplit(b *testing.B) {
	const d = 32
	rng := rand.New(rand.NewSource(3))
	queries := tensor.New(8, d)
	for i := range queries.Data() {
		queries.Data()[i] = float32(rng.NormFloat64())
	}
	for _, mb := range []int{1, 2, 4, 8, 16, 32, 128} {
		items, query := benchCatalog(mb<<20, d)
		for _, batch := range []int{1, 2, 8} {
			qs := queries.Rows(0, batch)
			for _, n := range []int{1, 2} {
				for _, callers := range []int{1, 2} {
					b.Run(fmt.Sprintf("%dMB/B=%d/ranges=%d/callers=%d", mb, batch, n, callers), func(b *testing.B) {
						done := make(chan struct{})
						for c := 0; c < callers; c++ {
							go func() {
								s := Scanner{forceRanges: n}
								var lists [][]Result
								for i := 0; i < b.N; i++ {
									if batch == 1 {
										s.TopK(items, query, 21)
									} else {
										lists = s.TopKBatch(lists[:0], items, qs, 21)
									}
								}
								done <- struct{}{}
							}()
						}
						for c := 0; c < callers; c++ {
							<-done
						}
					})
				}
			}
		}
	}
}

// BenchmarkTopK100kx18 is batch_100k's fused scan: C = 1e5, d = 18 (7.2 MB,
// one range), catalog warm.
func BenchmarkTopK100kx18(b *testing.B) {
	items, query := randCatalog(rand.New(rand.NewSource(1)), 100000, 18)
	var s Scanner
	b.SetBytes(100000 * 18 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(items, query, 21)
	}
}

// BenchmarkScanFused against BenchmarkScanThenSelect is the fusion alone:
// same kernel, same heap, with and without the 4 MB score vector.
func BenchmarkScanFused(b *testing.B) {
	items, query := benchCatalog(128<<20, 32)
	s := Scanner{forceRanges: 1}
	b.SetBytes(128 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(items, query, 21)
	}
}

func BenchmarkScanThenSelect(b *testing.B) {
	items, query := benchCatalog(128<<20, 32)
	scores := tensor.New(items.Dim(0))
	b.SetBytes(128 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVecInto(scores, items, query)
		SelectFromScores(scores.Data(), 21)
	}
}
