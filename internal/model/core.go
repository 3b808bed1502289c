package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("core", func(cfg Config) (Model, error) { return NewCORE(cfg) })
}

// CORE (Hou et al. 2022) keeps the session representation in the *same*
// space as the item embeddings ("consistent representation space"): the
// session representation is a learned weighted sum of the session's item
// embeddings, and scoring uses cosine similarity with a temperature.
type CORE struct {
	base
	alpha *nn.Linear // per-item weight logits, d → 1
	temp  float32    // softmax temperature for scoring
}

// NewCORE builds a CORE model (transformer-free "CORE-ave/att" style weight
// encoder, temperature 0.07 as in the reference implementation).
func NewCORE(cfg Config) (*CORE, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	return &CORE{
		base:  b,
		alpha: nn.NewLinear(in, b.cfg.Dim, 1),
		temp:  0.07,
	}, nil
}

// Name implements Model.
func (m *CORE) Name() string { return "core" }

// Recommend implements Model.
func (m *CORE) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *CORE) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *CORE) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *CORE) encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor {
	// Weight each item embedding: alpha = softmax(MLP(x)).
	logits := m.alpha.Forward(x).Reshape(len(session))
	logits.Softmax()
	rep := nn.Apply(logits, x)
	// Consistent representation space: L2-normalise and divide by the
	// temperature so the MIPS stage computes tempered cosine similarity.
	rep2 := rep.Reshape(1, m.cfg.Dim)
	rep2.L2NormalizeRows()
	rep2.ScaleInPlace(1 / m.temp)
	return rep
}

// CompiledRecommend implements JITCompilable.
func (m *CORE) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the eager encoder.
func (m *CORE) CompiledEncode() func(session []int64) *tensor.Tensor { return m.encode }

// Cost implements Model: CORE's encoder is the cheapest of the ten — one
// d→1 projection per item plus the weighted sum.
func (m *CORE) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*2*d + l*2*d + 3*d
	c.KernelLaunches = 5
	return c
}
