package topk

// MergePartial performs the k-way merge of per-shard top-k lists into the
// exact global top-k — the gather half of the catalog-sharded retrieval
// tier (internal/shard).
//
// Each partial must be sorted the way SelectFromScores emits results:
// descending by score with ties broken towards the lower item id. Because a
// shard's partial already contains its k best items, the merged list is
// bit-identical to an unsharded top-k over the union of the shards — the
// property the shard tier's correctness rests on (see the accompanying
// property test). Items across partials are normally disjoint (contiguous
// catalog partitions); duplicates, if present, are kept.
//
// Cost is O((P + k)·log P) for P partials — the explicit merge term of the
// sharded cost model (shard.MergeOps).
func MergePartial(partials [][]Result, k int) []Result {
	var m merger
	return m.run(partials, k)
}

// merger is MergePartial's working state, kept by a Scanner between calls.
type merger struct {
	partials [][]Result
	// heap holds the indices of non-exhausted partials, ordered by their
	// head element (pos is the head's position): the one that ranks first
	// at the root, so the merge pops results in SelectFromScores' output
	// order.
	heap, pos []int
}

func (m *merger) before(a, b int) bool {
	ra, rb := m.partials[a][m.pos[a]], m.partials[b][m.pos[b]]
	return ranks(ra.Score, ra.Item, rb.Score, rb.Item)
}

func (m *merger) down(i int) {
	heap := m.heap
	for {
		child := 2*i + 1
		if child >= len(heap) {
			return
		}
		if child+1 < len(heap) && m.before(heap[child+1], heap[child]) {
			child++
		}
		if !m.before(heap[child], heap[i]) {
			return
		}
		heap[i], heap[child] = heap[child], heap[i]
		i = child
	}
}

func (m *merger) run(partials [][]Result, k int) []Result {
	if k <= 0 {
		return nil
	}
	m.partials, m.heap, m.pos = partials, m.heap[:0], m.pos[:0]
	total := 0
	for i, p := range partials {
		m.pos = append(m.pos, 0)
		if len(p) > 0 {
			m.heap = append(m.heap, i)
			total += len(p)
		}
	}
	if total == 0 {
		return nil
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	out := make([]Result, 0, min(k, total))
	for len(out) < cap(out) {
		src := m.heap[0]
		out = append(out, partials[src][m.pos[src]])
		m.pos[src]++
		if m.pos[src] == len(partials[src]) {
			m.heap[0] = m.heap[len(m.heap)-1]
			m.heap = m.heap[:len(m.heap)-1]
		}
		m.down(0)
	}
	m.partials = nil
	return out
}
