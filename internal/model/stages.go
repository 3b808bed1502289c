package model

import (
	"time"

	"etude/internal/tensor"
	"etude/internal/topk"
)

// StageTimings is the per-stage decomposition of one Recommend call: the
// embedding gather, the architecture-specific encoder forward pass, and the
// O(C·(d+log k)) MIPS top-k scan — the three terms of the paper's cost
// model, measured rather than estimated.
type StageTimings struct {
	EmbeddingLookup time.Duration
	Encoder         time.Duration
	TopK            time.Duration
}

// StagedRecommender is implemented by models that decompose their own
// Recommend into stages under a caller-supplied clock (WithRetrieval's
// models, whose retrieval stage is substituted). Implementations must
// return exactly the results Recommend would.
type StagedRecommender interface {
	RecommendStaged(session []int64, now func() time.Duration) ([]topk.Result, StageTimings)
}

// splitEncoder is satisfied in-package by the embedding-table models whose
// encode factors into prepare (embedding gather, promoted from base) +
// encodeFrom (the architecture forward pass); score and zeroRep are also
// promoted from base. Keeping the interface unexported keeps the factored
// methods out of the public model API.
type splitEncoder interface {
	prepare(session []int64) ([]int64, *tensor.Tensor)
	zeroRep() *tensor.Tensor
	encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor
	score(rep *tensor.Tensor) []topk.Result
}

// RecommendStaged produces exactly m.Recommend(session) while measuring the
// stage decomposition under now. Decomposition fidelity degrades gracefully
// with what the model exposes:
//
//   - split encoders (most embedding-table models) report embedding-lookup,
//     encoder-forward and mips-topk separately;
//   - StagedRecommender implementations (WithRetrieval's models) report
//     their own encoder vs. retrieval split;
//   - plain Encoders (the session-graph models, whose lookup is interleaved
//     with graph construction) report encoder vs. top-k;
//   - anything else (RepeatNet's fused repeat/explore scoring) reports the
//     whole call as encoder time.
func RecommendStaged(m Model, session []int64, now func() time.Duration) ([]topk.Result, StageTimings) {
	switch mm := m.(type) {
	case splitEncoder:
		var tm StageTimings
		t0 := now()
		sess, x := mm.prepare(session)
		t1 := now()
		tm.EmbeddingLookup = t1 - t0
		var rep *tensor.Tensor
		if x == nil {
			rep = mm.zeroRep()
		} else {
			rep = mm.encodeFrom(sess, x)
		}
		t2 := now()
		tm.Encoder = t2 - t1
		recs := mm.score(rep)
		tm.TopK = now() - t2
		return recs, tm
	case StagedRecommender:
		return mm.RecommendStaged(session, now)
	case Encoder:
		var tm StageTimings
		t0 := now()
		rep := mm.Encode(session)
		t1 := now()
		tm.Encoder = t1 - t0
		recs := topk.TopK(mm.ItemEmbeddings(), rep, mm.Config().TopK)
		tm.TopK = now() - t1
		return recs, tm
	default:
		t0 := now()
		recs := m.Recommend(session)
		return recs, StageTimings{Encoder: now() - t0}
	}
}
