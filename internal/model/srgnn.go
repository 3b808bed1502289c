package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("srgnn", func(cfg Config) (Model, error) { return NewSRGNN(cfg) })
}

// SRGNN (Wu et al. 2019) models each session as a directed item-transition
// graph, propagates node states with a gated GNN, and reads out a session
// representation from an attention-weighted global vector combined with the
// last-clicked item's node state.
//
// The paper found that the RecBole implementation "contains NumPy operations
// in the inference function which require repeated data transfers between
// CPU and GPU at inference time". With Config.Faithful=true the graph
// construction and alias bookkeeping are attributed to the *host*, adding
// per-inference host↔device round trips to the cost model (see Cost); the
// fixed variant keeps everything on-device (HostTransfers = 0).
type SRGNN struct {
	base
	ggnn    *nn.GGNNCell
	attn    *nn.AdditiveAttention
	combine *nn.Linear // [2d] → d readout
	steps   int
}

// NewSRGNN builds an SR-GNN model with one propagation step.
func NewSRGNN(cfg Config) (*SRGNN, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &SRGNN{
		base:    b,
		ggnn:    nn.NewGGNNCell(in, d),
		attn:    nn.NewAdditiveAttention(in, d),
		combine: nn.NewLinearNoBias(in, 2*d, d),
		steps:   1,
	}, nil
}

// Name implements Model.
func (m *SRGNN) Name() string { return "srgnn" }

// Recommend implements Model.
func (m *SRGNN) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *SRGNN) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *SRGNN) encode(session []int64) *tensor.Tensor {
	session = truncate(session, m.cfg.MaxSessionLen)
	if len(session) == 0 {
		return m.zeroRep()
	}
	// Host-side preprocessing in the reference implementation: building the
	// session graph and alias arrays with NumPy.
	g := nn.BuildSessionGraph(session)
	h := m.emb.Lookup(g.Nodes)
	h = m.ggnn.Propagate(g, h, m.steps)

	// Readout: local = last click's node state; global = additive attention
	// over the session sequence (via alias), queried by local.
	local := h.Row(g.Alias[len(session)-1])
	seqStates := tensor.New(len(session), m.cfg.Dim)
	for t, a := range g.Alias {
		copy(seqStates.Data()[t*m.cfg.Dim:(t+1)*m.cfg.Dim], h.Row(a).Data())
	}
	w := m.attn.Weights(local, seqStates)
	w.Softmax()
	global := nn.Apply(w, seqStates)
	return m.combine.ForwardVec(tensor.Concat(global, local.Clone()))
}

// CompiledRecommend implements JITCompilable. Note that in the paper the
// JIT-optimised SR-GNN still suffers from its host transfers; the transfers
// are modelled in Cost, not here.
func (m *SRGNN) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the eager encoder.
func (m *SRGNN) CompiledEncode() func(session []int64) *tensor.Tensor { return m.encode }

// Cost implements Model: GGNN propagation is ~(8·d² messages + 24·d² gate)
// per node per step; the faithful variant adds four host↔device round trips
// per inference (graph upload, adjacency upload, alias transfer, result
// sync) which dominate GPU serving latency.
func (m *SRGNN) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = float64(m.steps)*l*(8*d*d+24*d*d) + l*6*d*d + 4*d*d
	c.KernelLaunches = m.steps*int(l)*3 + 8
	if m.cfg.Faithful {
		c.HostTransfers = 4
	}
	return c
}
