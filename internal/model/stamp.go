package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("stamp", func(cfg Config) (Model, error) { return NewSTAMP(cfg) })
}

// STAMP (Liu et al. 2018) captures short-term attention/memory priority:
// attention over the session items is computed from each item, the last
// click and the session mean; the attended memory and the last click are
// passed through separate MLPs and combined by an element-wise product.
type STAMP struct {
	base
	w1, w2, w3 *nn.Linear     // attention input transforms
	w0         *tensor.Tensor // attention output vector [d]
	mlpA, mlpB *nn.Linear     // hs and ht transforms
}

// NewSTAMP builds a STAMP model.
func NewSTAMP(cfg Config) (*STAMP, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &STAMP{
		base: b,
		w1:   nn.NewLinearNoBias(in, d, d),
		w2:   nn.NewLinearNoBias(in, d, d),
		w3:   nn.NewLinearNoBias(in, d, d),
		w0:   in.Xavier(d),
		mlpA: nn.NewLinear(in, d, d),
		mlpB: nn.NewLinear(in, d, d),
	}, nil
}

// Name implements Model.
func (m *STAMP) Name() string { return "stamp" }

// Recommend implements Model.
func (m *STAMP) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *STAMP) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *STAMP) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *STAMP) encodeFrom(_ []int64, x *tensor.Tensor) *tensor.Tensor {
	seqLen, d := x.Dim(0), x.Dim(1)
	xt := x.Row(seqLen - 1) // last click
	// Session mean ms.
	ms := tensor.New(d)
	for t := 0; t < seqLen; t++ {
		ms.AddInPlace(x.Row(t))
	}
	ms.ScaleInPlace(1 / float32(seqLen))

	// Attention: a_i = w0 · σ(W1·x_i + W2·x_t + W3·ms).
	wxt := m.w2.ForwardVec(xt)
	wms := m.w3.ForwardVec(ms)
	w1x := m.w1.Forward(x)
	weights := tensor.New(seqLen)
	for t := 0; t < seqLen; t++ {
		row := w1x.Row(t).Clone()
		row.AddInPlace(wxt)
		row.AddInPlace(wms)
		row.Sigmoid()
		weights.Data()[t] = tensor.Dot(m.w0.Data(), row.Data())
	}
	ma := nn.Apply(weights, x)
	ma.AddInPlace(ms) // residual with the mean, as in the reference code

	hs := m.mlpA.ForwardVec(ma)
	hs.Tanh()
	ht := m.mlpB.ForwardVec(xt)
	ht.Tanh()
	return tensor.Mul(hs, ht)
}

// CompiledRecommend implements JITCompilable.
func (m *STAMP) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the eager encoder.
func (m *STAMP) CompiledEncode() func(session []int64) *tensor.Tensor { return m.encode }

// Cost implements Model: attention transforms are 2·d² per item plus two
// fixed 2·d² MLPs.
func (m *STAMP) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*4*d*d + 8*d*d
	c.KernelLaunches = 8 + int(l)
	return c
}
