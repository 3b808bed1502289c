package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("gcsan", func(cfg Config) (Model, error) { return NewGCSAN(cfg) })
}

// GCSAN (Xu et al. 2019) combines SR-GNN-style gated graph propagation with
// stacked self-attention over the propagated node states; the final session
// representation interpolates the self-attention output at the last position
// with the last click's GGNN state.
//
// Like SR-GNN, the RecBole implementation performs NumPy graph preprocessing
// inside the inference function; Config.Faithful=true attributes the
// resulting host↔device round trips in the cost model.
type GCSAN struct {
	base
	ggnn   *nn.GGNNCell
	blocks []*transformerBlock
	weight float32 // interpolation between SAN output and GGNN state
	steps  int
}

const gcsanLayers = 1

// NewGCSAN builds a GC-SAN model with one GGNN step and one self-attention
// layer.
func NewGCSAN(cfg Config) (*GCSAN, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	blocks := make([]*transformerBlock, gcsanLayers)
	for i := range blocks {
		blocks[i] = newTransformerBlock(in, d, 2)
	}
	return &GCSAN{
		base:   b,
		ggnn:   nn.NewGGNNCell(in, d),
		blocks: blocks,
		weight: 0.6,
		steps:  1,
	}, nil
}

// Name implements Model.
func (m *GCSAN) Name() string { return "gcsan" }

// Recommend implements Model.
func (m *GCSAN) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *GCSAN) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *GCSAN) encode(session []int64) *tensor.Tensor {
	session = truncate(session, m.cfg.MaxSessionLen)
	if len(session) == 0 {
		return m.zeroRep()
	}
	g := nn.BuildSessionGraph(session)
	h := m.emb.Lookup(g.Nodes)
	h = m.ggnn.Propagate(g, h, m.steps)

	// Re-expand node states to the session sequence, then self-attend.
	d := m.cfg.Dim
	seq := tensor.New(len(session), d)
	for t, a := range g.Alias {
		copy(seq.Data()[t*d:(t+1)*d], h.Row(a).Data())
	}
	san := seq
	for _, blk := range m.blocks {
		san = blk.forward(san, true)
	}
	// Interpolate the SAN output at the last position with the GGNN state
	// of the last click.
	last := san.Row(len(session) - 1).Clone()
	last.ScaleInPlace(m.weight)
	ggnnLast := seq.Row(len(session) - 1).Clone()
	ggnnLast.ScaleInPlace(1 - m.weight)
	last.AddInPlace(ggnnLast)
	return last
}

// CompiledRecommend implements JITCompilable (host transfers remain, as in
// the paper; they are modelled in Cost).
func (m *GCSAN) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the eager encoder.
func (m *GCSAN) CompiledEncode() func(session []int64) *tensor.Tensor { return m.encode }

// Cost implements Model: GGNN propagation plus transformer layers, with
// host transfers in the faithful variant.
func (m *GCSAN) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	ggnn := float64(m.steps) * l * (8*d*d + 24*d*d)
	san := float64(gcsanLayers) * (l*(8*d*d+16*d*d) + 4*l*l*d)
	c.EncoderFLOPs = ggnn + san
	c.KernelLaunches = m.steps*int(l)*3 + gcsanLayers*10 + 4
	if m.cfg.Faithful {
		c.HostTransfers = 4
	}
	return c
}
