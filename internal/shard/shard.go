// Package shard implements the catalog-sharded scatter-gather retrieval
// tier: the scale-out answer to the paper's central observation that
// inference latency is dominated by the O(C·(d + log k)) maximum-inner-
// product search over the catalog.
//
// The catalog embedding matrix is partitioned into S contiguous shards.
// Each request's session representation is scattered to one top-k worker
// per shard, the partial heaps are gathered, and topk.MergePartial combines
// them into the exact global top-k — bit-identical to an unsharded scan,
// because every shard surfaces its own k best candidates and the merge
// preserves the (score, item-id) order. The per-request work is unchanged;
// only its placement is: each worker pays C/S of the scan, so the dominant
// latency term divides by S at the cost of an explicit O((S + k)·log S)
// merge.
//
// Three substrates share these semantics:
//
//   - in-process: Pool fans out to one goroutine per shard inside a single
//     pod (internal/server's Options.Shards);
//   - cross-pod: Gateway scatters HTTP sub-requests to per-shard pod groups
//     through health-aware pickers (internal/cluster's balancer), with
//     optional tail-latency hedging — a backup sub-request to a replica of
//     the same shard after a p95-based delay, first response wins, loser
//     cancelled;
//   - simulated: SimFleet runs the same scatter/merge/hedge on the
//     discrete-event engine, with per-shard service time taken from the
//     sliced cost model (SliceCost) and the merge cost explicit (MergeOps).
//
// The last two make every per-request decision — hedge, cancel, skip a
// group whose breaker is open, declare a shard missed, finish — in one
// clock-free state machine, the gather core (gather.go); Gateway drives it
// with goroutines, wall-clock timers and context cancel, SimFleet with
// engine events.
package shard

import (
	"fmt"
	"math"

	"etude/internal/model"
)

// Partition is one contiguous shard of the catalog: rows [From, To) of the
// item-embedding matrix. Item ids stay global — a worker scoring a
// partition rebases its local row indices by From.
type Partition struct {
	// Index is the shard number in [0, S).
	Index int
	// From and To bound the catalog rows, half-open.
	From, To int
}

// Size returns the number of items in the partition.
func (p Partition) Size() int { return p.To - p.From }

// String renders the partition for logs and reports.
func (p Partition) String() string {
	return fmt.Sprintf("shard %d [%d,%d)", p.Index, p.From, p.To)
}

// Plan splits a catalog of C items into `shards` contiguous partitions of
// near-equal size (the first C mod S partitions hold one extra item).
func Plan(catalog, shards int) ([]Partition, error) {
	if catalog <= 0 {
		return nil, fmt.Errorf("shard: catalog size must be positive, got %d", catalog)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", shards)
	}
	if shards > catalog {
		return nil, fmt.Errorf("shard: cannot split %d items into %d shards", catalog, shards)
	}
	base, extra := catalog/shards, catalog%shards
	parts := make([]Partition, shards)
	from := 0
	for i := range parts {
		size := base
		if i < extra {
			size++
		}
		parts[i] = Partition{Index: i, From: from, To: from + size}
		from += size
	}
	return parts, nil
}

// SliceCost returns the per-inference cost of one worker serving a
// 1/shards slice of the catalog. The catalog-proportional terms — the MIPS
// scoring pass, the top-k heap maintenance, the catalog-scan and
// score-vector traffic, and any dense-on-sparse overhead — divide by the
// shard count; the session encoder is excluded entirely, because the
// frontend encodes once and scatters the finished representation. Kernel
// launches and host transfers stay: each worker dispatches its own scoring
// kernels, which is why shard counts past the point where the scan
// amortises the fixed per-worker overhead stop paying off.
func SliceCost(c model.Cost, shards int) model.Cost {
	if shards < 1 {
		shards = 1
	}
	s := float64(shards)
	c.Catalog = (c.Catalog + shards - 1) / shards
	c.EncoderFLOPs = 0
	c.MIPSFLOPs /= s
	c.TopKOps /= s
	c.SharedBytes /= s
	c.PerRequestBytes /= s
	c.DenseOverheadFLOPs /= s
	return c
}

// MergeOps approximates the arithmetic work of the gather-merge: a k-way
// merge over `shards` partial lists pops k results through a log2(S)-deep
// head heap (compare + swap per level) and copies S·k candidate entries.
// It is the explicit merge term of the sharded cost model — tiny next to
// the scan it replaces, but charged rather than assumed free.
func MergeOps(shards, k int) float64 {
	if shards < 1 || k < 1 {
		return 0
	}
	levels := math.Log2(float64(shards)) + 1
	return float64(k)*levels*2 + float64(shards*k)
}
