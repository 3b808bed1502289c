package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("sasrec", func(cfg Config) (Model, error) { return NewSASRec(cfg) })
}

// SASRec (Kang & McAuley 2018) is the self-attentive sequential model: item
// plus positional embeddings run through stacked causal transformer blocks;
// the representation at the final position is the session representation.
type SASRec struct {
	base
	pos    *tensor.Tensor
	blocks []*transformerBlock
}

type transformerBlock struct {
	attn     *nn.MultiHeadAttention
	ffn      *nn.FeedForward
	ln1, ln2 *nn.LayerNorm
}

func newTransformerBlock(in *nn.Initializer, d, heads int) *transformerBlock {
	return &transformerBlock{
		attn: nn.NewMultiHeadAttention(in, d, heads),
		ffn:  nn.NewFeedForward(in, d, 4*d),
		ln1:  nn.NewLayerNorm(in, d),
		ln2:  nn.NewLayerNorm(in, d),
	}
}

// forward applies pre-norm attention and feed-forward with residuals.
func (b *transformerBlock) forward(x *tensor.Tensor, causal bool) *tensor.Tensor {
	h := tensor.Add(x, b.attn.Forward(b.ln1.Forward(x), causal))
	return tensor.Add(h, b.ffn.Forward(b.ln2.Forward(h)))
}

const sasrecLayers = 2

// NewSASRec builds a SASRec model with two transformer layers and two heads.
func NewSASRec(cfg Config) (*SASRec, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	blocks := make([]*transformerBlock, sasrecLayers)
	for i := range blocks {
		blocks[i] = newTransformerBlock(in, d, 2)
	}
	return &SASRec{
		base:   b,
		pos:    positionTable(in, b.cfg.MaxSessionLen, d),
		blocks: blocks,
	}, nil
}

// Name implements Model.
func (m *SASRec) Name() string { return "sasrec" }

// Recommend implements Model.
func (m *SASRec) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *SASRec) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *SASRec) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *SASRec) encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor {
	addPositions(x, m.pos)
	for _, b := range m.blocks {
		x = b.forward(x, true)
	}
	return x.Row(len(session) - 1).Clone()
}

// CompiledRecommend implements JITCompilable: the forward pass runs out of
// the plan's blockWorkspace, the last block computes the last position only
// (forwardLastInto), and the representation is read in place from the
// residual stream's last row. Eager encode runs every block over every
// position and is the oracle the plan is tested against.
func (m *SASRec) CompiledRecommend() func(session []int64) []topk.Result {
	scorer := m.compiledScorer()
	d, zero := m.cfg.Dim, m.zeroRep()
	var ws blockWorkspace
	var rep tensor.Tensor
	return func(session []int64) []topk.Result {
		session = truncate(session, m.cfg.MaxSessionLen)
		n := len(session)
		if n == 0 {
			return scorer(zero)
		}
		x := ws.bind(n, d)
		m.emb.LookupInto(x.Data(), session)
		addPositions(x, m.pos)
		last := len(m.blocks) - 1
		for _, b := range m.blocks[:last] {
			b.forwardInto(&ws, x, true)
		}
		m.blocks[last].forwardLastInto(&ws, x, true)
		rep.Bind(x.Data()[(n-1)*d:], d)
		return scorer(&rep)
	}
}

// Cost implements Model: per layer, QKV+output projections are 8·d² per
// position, attention itself 4·L·d per position, and the 4×-expanded FFN
// 16·d² per position.
func (m *SASRec) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	perLayer := l*(8*d*d+16*d*d) + 4*l*l*d
	c.EncoderFLOPs = float64(sasrecLayers) * perLayer
	c.KernelLaunches = sasrecLayers*10 + 3
	return c
}
