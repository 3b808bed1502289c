package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("gru4rec", func(cfg Config) (Model, error) { return NewGRU4Rec(cfg) })
}

// GRU4Rec is the classic recurrent SBR model (Tan et al. 2016): item
// embeddings are fed through a GRU and the final hidden state is the session
// representation.
type GRU4Rec struct {
	base
	gru  *nn.GRU
	proj *nn.Linear // hidden → embedding space
}

// NewGRU4Rec builds a GRU4Rec model.
func NewGRU4Rec(cfg Config) (*GRU4Rec, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &GRU4Rec{
		base: b,
		gru:  nn.NewGRU(in, d, d, 1),
		proj: nn.NewLinear(in, d, d),
	}, nil
}

// Name implements Model.
func (m *GRU4Rec) Name() string { return "gru4rec" }

// Recommend implements Model.
func (m *GRU4Rec) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *GRU4Rec) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *GRU4Rec) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *GRU4Rec) encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor {
	states := m.gru.Forward(x)
	return m.proj.ForwardVec(states.Row(len(session) - 1))
}

// CompiledRecommend implements JITCompilable.
func (m *GRU4Rec) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the GRU and the projection run
// with weights transposed once, and every per-step buffer — the returned
// representation too — is the plan's, grown to the longest session seen.
func (m *GRU4Rec) CompiledEncode() func(session []int64) *tensor.Tensor {
	d := m.cfg.Dim
	gru, proj := m.gru.Plan(), m.proj.PlanVec()
	var x, states []float32
	rep := tensor.New(d)
	return func(session []int64) *tensor.Tensor {
		session = truncate(session, m.cfg.MaxSessionLen)
		n := len(session)
		if n == 0 {
			rep.Zero()
			return rep
		}
		x, states = tensor.Grow(x, n*d), tensor.Grow(states, n*d)
		m.emb.LookupInto(x, session)
		gru.Forward(states, x)
		proj.Into(rep.Data(), states[(n-1)*d:])
		return rep
	}
}

// Cost implements Model. Per GRU step: input and hidden transforms are
// 2·d·3d FLOPs each; the projection adds 2·d².
func (m *GRU4Rec) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*12*d*d + 2*d*d
	c.KernelLaunches = int(l)*2 + 3
	return c
}

func clampLen(l, maxLen int) int {
	if l > maxLen {
		return maxLen
	}
	if l < 1 {
		return 1
	}
	return l
}
