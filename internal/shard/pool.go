package shard

import (
	"fmt"

	"etude/internal/model"
	"etude/internal/tensor"
	"etude/internal/topk"
	"etude/internal/trace"
)

// Pool is the in-process scatter-gather tier: one goroutine per shard
// scores its slice of the catalog embedding matrix against the session
// representation, and the partial top-k lists are merged into the exact
// global top-k. It is safe for concurrent use — each call allocates its own
// scan scratch and partial lists.
type Pool struct {
	items *tensor.Tensor
	parts []Partition
}

// NewPool partitions the [C, d] item-embedding matrix into `shards`
// contiguous shards.
func NewPool(items *tensor.Tensor, shards int) (*Pool, error) {
	if items == nil {
		return nil, fmt.Errorf("shard: nil item matrix")
	}
	parts, err := Plan(items.Dim(0), shards)
	if err != nil {
		return nil, err
	}
	return &Pool{items: items, parts: parts}, nil
}

// Shards returns the number of partitions.
func (p *Pool) Shards() int { return len(p.parts) }

// TopK scatters the query to the per-shard workers and merges their
// partial heaps into the exact global top-k.
func (p *Pool) TopK(query *tensor.Tensor, k int) []topk.Result {
	return p.TopKSpan(query, k, nil)
}

// TopKSpan is TopK with stage tracing: scatter (goroutine fan-out), wait
// (fan-out until the last partial arrives — the straggler term) and merge
// are observed on the span. A nil span is the untraced fast path.
func (p *Pool) TopKSpan(query *tensor.Tensor, k int, sp *trace.Span) []topk.Result {
	if len(p.parts) == 1 {
		// Degenerate single-shard pool: no fan-out, plain scan.
		mergeStart := sp.Now()
		out := searchPartition(p.items, p.parts[0], query, k)
		sp.ObserveSince(trace.StageMIPSTopK, mergeStart)
		return out
	}
	scatterStart := sp.Now()
	partials := make([][]topk.Result, len(p.parts))
	done := make(chan struct{}, len(p.parts)-1)
	remaining := len(p.parts)
	for i := 1; i < len(p.parts); i++ {
		go func(i int) {
			partials[i] = searchPartition(p.items, p.parts[i], query, k)
			done <- struct{}{}
		}(i)
	}
	sp.ObserveSince(trace.StageShardScatter, scatterStart)
	waitStart := sp.Now()
	// The caller's goroutine doubles as shard 0's worker — a fan-out of S
	// goroutines would leave it idle while it waits.
	partials[0] = searchPartition(p.items, p.parts[0], query, k)
	for remaining > 1 {
		<-done
		remaining--
	}
	sp.ObserveSince(trace.StageShardWait, waitStart)
	mergeStart := sp.Now()
	out := topk.MergePartial(partials, k)
	sp.ObserveSince(trace.StageShardMerge, mergeStart)
	return out
}

// TopKPartial is the partial-result mirror of TopK: shards whose index is
// marked down are excluded from the scan, and the exact top-k over the
// surviving catalog slices is returned along with how many shards answered.
// It is the in-process analogue of a gateway scatter under PolicyPartial —
// and the oracle-vs-partial comparator the blackout experiment uses to
// measure recall@k (TopKPartial with no shards down is bit-identical to
// TopK).
func (p *Pool) TopKPartial(query *tensor.Tensor, k int, down []bool) ([]topk.Result, int) {
	partials := make([][]topk.Result, len(p.parts))
	answered := 0
	for i, part := range p.parts {
		if i < len(down) && down[i] {
			continue
		}
		partials[i] = searchPartition(p.items, part, query, k)
		answered++
	}
	return topk.MergePartial(partials, k), answered
}

// searchPartition returns the partition's exact top-k under global item ids.
func searchPartition(items *tensor.Tensor, part Partition, query *tensor.Tensor, k int) []topk.Result {
	return topk.Scan(items, query, k, part.From, part.To)
}

// PartitionRetriever returns a model.Retriever serving the exact top-k of
// one catalog partition (item ids stay global) — the per-pod retrieval
// stage of a cross-pod sharded fleet, to be merged by a Gateway.
func PartitionRetriever(enc model.Encoder, part Partition) (model.Retriever, error) {
	if enc == nil {
		return nil, fmt.Errorf("shard: nil encoder")
	}
	items := enc.ItemEmbeddings()
	if part.From < 0 || part.To > items.Dim(0) || part.From >= part.To {
		return nil, fmt.Errorf("shard: partition %v outside catalog of %d items", part, items.Dim(0))
	}
	return model.RetrieverFunc(func(query *tensor.Tensor, k int) ([]topk.Result, error) {
		return searchPartition(items, part, query, k), nil
	}), nil
}

// PartitionModel wraps an encoder model so it serves only one catalog
// partition: the full encoder runs, but the MIPS stage scans rows
// [From, To) only. The wrapped model deploys through internal/server
// unchanged (server.Options.Partition wires it up).
func PartitionModel(enc model.Encoder, part Partition) (model.Model, error) {
	r, err := PartitionRetriever(enc, part)
	if err != nil {
		return nil, err
	}
	return model.WithRetrieval(enc, r)
}
