package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("sine", func(cfg Config) (Model, error) { return NewSINE(cfg) })
}

// SINE (Tan et al. 2021) is the sparse-interest network: a pool of L concept
// prototypes is maintained; for each session the top few concepts are
// activated, items are softly assigned to the active concepts, one
// representation per active concept is aggregated, and an intention head
// fuses them into the session representation.
type SINE struct {
	base
	concepts  *tensor.Tensor // [numConcepts, d] prototype pool
	selfAttn  *nn.AdditiveAttention
	aggGate   *nn.Linear // intention-weight head, d → 1
	numActive int
}

const (
	sineConcepts = 8
	sineActive   = 2
)

// NewSINE builds a SINE model with an 8-prototype pool and 2 active
// concepts per session.
func NewSINE(cfg Config) (*SINE, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &SINE{
		base:      b,
		concepts:  in.Xavier(sineConcepts, d),
		selfAttn:  nn.NewAdditiveAttention(in, d),
		aggGate:   nn.NewLinear(in, d, 1),
		numActive: sineActive,
	}, nil
}

// Name implements Model.
func (m *SINE) Name() string { return "sine" }

// Recommend implements Model.
func (m *SINE) Recommend(session []int64) []topk.Result {
	return m.score(m.encode(session))
}

// Encode implements model.Encoder: it returns the session representation
// the MIPS stage scores against the catalog.
func (m *SINE) Encode(session []int64) *tensor.Tensor {
	return m.encode(session)
}

func (m *SINE) encode(session []int64) *tensor.Tensor {
	session, x := m.prepare(session)
	if x == nil {
		return m.zeroRep()
	}
	return m.encodeFrom(session, x)
}

// encodeFrom runs the architecture forward pass on the prepared embeddings
// (the encoder-forward stage of the trace decomposition).
func (m *SINE) encodeFrom(session []int64, x *tensor.Tensor) *tensor.Tensor {
	d := m.cfg.Dim

	// Session summary via self-attention (query = mean of embeddings).
	mean := tensor.New(d)
	for t := 0; t < len(session); t++ {
		mean.AddInPlace(x.Row(t))
	}
	mean.ScaleInPlace(1 / float32(len(session)))
	w := m.selfAttn.Weights(mean, x)
	w.Softmax()
	zu := nn.Apply(w, x)

	// Activate the top numActive concepts by prototype similarity.
	conceptScores := tensor.MatVec(m.concepts, zu)
	active := topk.SelectFromScores(conceptScores.Data(), m.numActive)

	// Per active concept: soft-assign items and aggregate one interest
	// embedding, then fuse with intention weights.
	rep := tensor.New(d)
	gateLogits := tensor.New(len(active))
	interests := tensor.New(len(active), d)
	for a, concept := range active {
		proto := m.concepts.Row(int(concept.Item))
		assign := tensor.MatVec(x, proto) // [seqLen] item-to-concept affinity
		assign.Softmax()
		interest := nn.Apply(assign, x)
		copy(interests.Data()[a*d:(a+1)*d], interest.Data())
		gateLogits.Data()[a] = m.aggGate.ForwardVec(interest).At(0)
	}
	gateLogits.Softmax()
	for a := 0; a < len(active); a++ {
		g := gateLogits.Data()[a]
		row := interests.Row(a)
		for c := 0; c < d; c++ {
			rep.Data()[c] += g * row.Data()[c]
		}
	}
	return rep
}

// CompiledRecommend implements JITCompilable.
func (m *SINE) CompiledRecommend() func(session []int64) []topk.Result {
	return m.compiledRecommend(m.CompiledEncode())
}

// CompiledEncode implements CompiledEncoder: the eager encoder.
func (m *SINE) CompiledEncode() func(session []int64) *tensor.Tensor { return m.encode }

// Cost implements Model: attention summary (4·d² per item), prototype
// scoring (2·numConcepts·d) and per-active-concept assignment (2·L·d each).
func (m *SINE) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*4*d*d + 2*sineConcepts*d + sineActive*(4*l*d+2*d)
	c.KernelLaunches = 6 + 3*sineActive
	return c
}
