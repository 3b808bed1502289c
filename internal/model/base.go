package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

// base bundles the state every SBR model shares: the resolved config, the
// item embedding table (whose rows double as the catalog representation for
// the final MIPS stage), and the top-k scorer.
type base struct {
	cfg Config
	emb *nn.Embedding
}

func newBase(cfg Config, in *nn.Initializer) (base, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return base{}, err
	}
	items := cfg.CatalogSize
	if cfg.costOnly {
		// Cost estimation never touches weights; keep the table tiny. Cost
		// formulas read cfg.CatalogSize, which stays at the requested C.
		items = 1
	}
	return base{cfg: cfg, emb: nn.NewEmbedding(in, items, cfg.Dim)}, nil
}

func (b *base) Config() Config { return b.cfg }

// ItemEmbeddings returns the [C, d] catalog representation scored by the
// MIPS stage; part of the Encoder interface.
func (b *base) ItemEmbeddings() *tensor.Tensor { return b.emb.Weight }

// prepare truncates the session and looks up item embeddings. A nil tensor
// is returned for empty sessions; callers then fall back to zeroRep.
func (b *base) prepare(session []int64) ([]int64, *tensor.Tensor) {
	session = truncate(session, b.cfg.MaxSessionLen)
	if len(session) == 0 {
		return nil, nil
	}
	return session, b.emb.Lookup(session)
}

// zeroRep is the session representation used for empty sessions: it scores
// every item identically, yielding a deterministic lowest-id top-k. Serving
// code never panics on degenerate input.
func (b *base) zeroRep() *tensor.Tensor {
	return tensor.New(b.cfg.Dim)
}

// score runs the maximum-inner-product search of rep against the catalog.
func (b *base) score(rep *tensor.Tensor) []topk.Result {
	return topk.TopK(b.emb.Weight, rep, b.cfg.TopK)
}

// compiledScorer returns a scoring closure that keeps its scan scratch
// across calls, so a compiled plan allocates only the list it returns.
func (b *base) compiledScorer() func(rep *tensor.Tensor) []topk.Result {
	var scan topk.Scanner
	return func(rep *tensor.Tensor) []topk.Result {
		return scan.TopK(b.emb.Weight, rep, b.cfg.TopK)
	}
}

// positionTable returns a learned positional embedding table of maxLen rows.
func positionTable(in *nn.Initializer, maxLen, dim int) *tensor.Tensor {
	return in.Xavier(maxLen, dim)
}

// addPositions adds positional embeddings (aligned to the *end* of the
// table, as RecBole right-pads sessions) to x in place.
func addPositions(x, pos *tensor.Tensor) {
	seqLen, dim := x.Dim(0), x.Dim(1)
	for t := 0; t < seqLen; t++ {
		row := x.Data()[t*dim : (t+1)*dim]
		p := t % pos.Dim(0)
		prow := pos.Data()[p*dim : (p+1)*dim]
		for c := range row {
			row[c] += prow[c]
		}
	}
}
