package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("narm", func(cfg Config) (Model, error) { return NewNARM(cfg) })
}

// NARM (Li et al. 2017) is a neural attentive session-based model: a GRU
// encoder produces hidden states, a global encoder takes the last state, a
// local encoder computes an attention-weighted sum of all states with the
// last state as query, and the concatenation is projected back into the
// item-embedding space by a bilinear decoder.
type NARM struct {
	base
	gru  *nn.GRU
	attn *nn.AdditiveAttention
	bili *nn.Linear // [2d] → [d] bilinear decoder B
}

// NewNARM builds a NARM model.
func NewNARM(cfg Config) (*NARM, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &NARM{
		base: b,
		gru:  nn.NewGRU(in, d, d, 1),
		attn: nn.NewAdditiveAttention(in, d),
		bili: nn.NewLinearNoBias(in, 2*d, d),
	}, nil
}

// Name implements Model.
func (m *NARM) Name() string { return "narm" }

// Recommend implements Model.
func (m *NARM) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *NARM) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *NARM) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *NARM) encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor {
	states := m.gru.Forward(x)
	last := states.Row(len(session) - 1)

	// Global encoder: the final hidden state.
	global := last
	// Local encoder: additive attention over all states, queried by last.
	w := m.attn.Weights(last, states)
	local := nn.Apply(w, states)

	return m.bili.ForwardVec(tensor.Concat(global.Clone(), local))
}

// CompiledRecommend implements JITCompilable.
func (m *NARM) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the GRU, the attention's query
// projection and the decoder run with weights transposed once, into buffers
// the plan keeps and grows to the longest session seen.
func (m *NARM) CompiledEncode() func(session []int64) *tensor.Tensor {
	d := m.cfg.Dim
	gru, attn, bili := m.gru.Plan(), m.attn.Plan(), m.bili.PlanVec()
	var x, states, w []float32
	var statesT tensor.Tensor
	concat, rep := make([]float32, 2*d), tensor.New(d)
	return func(session []int64) *tensor.Tensor {
		session = truncate(session, m.cfg.MaxSessionLen)
		n := len(session)
		if n == 0 {
			rep.Zero()
			return rep
		}
		x, states, w = tensor.Grow(x, n*d), tensor.Grow(states, n*d), tensor.Grow(w, n)
		m.emb.LookupInto(x, session)
		gru.Forward(states, x)
		statesT.Bind(states, n, d)
		last := states[(n-1)*d:]
		attn.WeightsInto(w, last, &statesT)
		copy(concat[:d], last)
		nn.ApplyInto(concat[d:], w, &statesT)
		bili.Into(rep.Data(), concat)
		return rep
	}
}

// Cost implements Model: the GRU dominates (12·d² per step), attention adds
// ~6·d² per step, the decoder 4·d².
func (m *NARM) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*12*d*d + l*6*d*d + 4*d*d
	c.KernelLaunches = int(l)*3 + 4
	return c
}
