package topk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"etude/internal/tensor"
)

// TopKBatch returns, for every query, what scoring into a vector and
// selecting from it returns for that query alone — TopK's answer, TopK
// being the case B = 1: for catalogs below, at and off multiples of the
// sub-block, every batch size from 1 to 8, forced range counts 1 to 4 and
// the split rule's own, k from 0 past C, ties between duplicate rows,
// all-zero rows, and queries holding NaN, ±Inf or nothing but zeros.
func TestTopKBatchMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const d = 6
	for _, c := range []int{1, 3, subBlockRows - 1, subBlockRows, subBlockRows + 1, 3*subBlockRows + 77} {
		items, _ := randCatalog(rng, c, d)
		for r := 0; r < c; r++ {
			switch r % 7 {
			case 1: // duplicates of row 0: ties across sub-blocks and ranges
				copy(items.Row(r).Data(), items.Row(0).Data())
			case 4:
				clear(items.Row(r).Data())
			}
		}
		queries := tensor.New(8, d)
		for j := 0; j < 8; j++ {
			q := queries.Row(j).Data()
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			switch j {
			case 2:
				q[j%d] = float32(math.NaN())
			case 3:
				q[0] = float32(math.Inf(1))
			case 5:
				q[1] = float32(math.Inf(-1))
			case 6:
				clear(q)
			}
		}
		for b := 1; b <= 8; b++ {
			qs := queries.Rows(0, b)
			for _, k := range []int{0, 1, 21, c, c + 5} {
				var want [][]Result
				for j := 0; j < b; j++ {
					want = append(want, reference(items, qs.Row(j), k, 0, c))
				}
				for n := 0; n <= 4; n++ {
					s := Scanner{forceRanges: n}
					for round := 0; round < 2; round++ { // the second on warm scratch
						got := s.TopKBatch(nil, items, qs, k)
						if len(got) != b {
							t.Fatalf("C=%d B=%d k=%d ranges=%d: %d lists", c, b, k, n, len(got))
						}
						for j := range want {
							sameResults(t, fmt.Sprintf("C=%d B=%d k=%d ranges=%d round %d query %d", c, b, k, n, round, j), got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TopKBatch appends to dst and leaves what dst held.
func TestTopKBatchAppends(t *testing.T) {
	items, query := randCatalog(rand.New(rand.NewSource(4)), 100, 4)
	queries := tensor.New(2, 4)
	copy(queries.Row(1).Data(), query.Data())
	var s Scanner
	first := s.TopK(items, query, 5)
	got := s.TopKBatch([][]Result{first}, items, queries, 5)
	if len(got) != 3 {
		t.Fatalf("%d lists, want 3", len(got))
	}
	sameResults(t, "kept", got[0], first)
	sameResults(t, "appended", got[2], first)
}

func TestTopKBatchRejectsBadInput(t *testing.T) {
	items := tensor.New(4, 2)
	for name, queries := range map[string]*tensor.Tensor{
		"queries of another dimension": tensor.New(2, 3),
		"1-D queries":                  tensor.New(2),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			var s Scanner
			s.TopKBatch(nil, items, queries, 2)
		}()
	}
}

// BenchmarkTopKBatch100kx18 is batch_100k's batch scan: two queries against
// C = 1e5, d = 18 (7.2 MB, 14.4 MB of work), catalog warm, on the split
// rule's ranges. BenchmarkTopK100kx18 is one of the two scans it replaces.
func BenchmarkTopKBatch100kx18(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items, _ := randCatalog(rng, 100000, 18)
	queries := tensor.New(2, 18)
	for i := range queries.Data() {
		queries.Data()[i] = float32(rng.NormFloat64())
	}
	var s Scanner
	var lists [][]Result
	b.SetBytes(100000 * 18 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists = s.TopKBatch(lists[:0], items, queries, 21)
	}
}
