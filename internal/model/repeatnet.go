package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
	"etude/internal/topk"
)

func init() {
	Register("repeatnet", func(cfg Config) (Model, error) { return NewRepeatNet(cfg) })
}

// RepeatNet (Ren et al. 2019) uses an encoder-decoder with a repeat-explore
// mechanism: a GRU encodes the session; a discriminator predicts the
// probability of repeating a previously clicked item vs exploring a new one;
// a repeat decoder scores only the session's items and an explore decoder
// scores the full catalog; the final distribution mixes both.
//
// The paper found that the RecBole implementation "contains expensive tensor
// multiplications of very sparse matrices which are implemented with dense
// operations and representations". With Config.Faithful=true we reproduce
// that behaviour: the repeat distribution is scattered into a dense
// C-dimensional vector via a dense [C × L] one-hot matrix product, adding
// O(C·L) work and O(C·L) temporary memory per inference. With Faithful=false
// the fixed variant scatters sparsely in O(L).
type RepeatNet struct {
	base
	gru        *nn.GRU
	repAttn    *nn.AdditiveAttention // repeat-mode attention
	expAttn    *nn.AdditiveAttention // explore-mode attention
	gate       *nn.Linear            // repeat/explore discriminator, 2d → 2
	exploreOut *nn.Linear            // explore decoder projection d → d
}

// NewRepeatNet builds a RepeatNet model.
func NewRepeatNet(cfg Config) (*RepeatNet, error) {
	in := nn.NewInitializer(cfg.Seed)
	b, err := newBase(cfg, in)
	if err != nil {
		return nil, err
	}
	d := b.cfg.Dim
	return &RepeatNet{
		base:       b,
		gru:        nn.NewGRU(in, d, d, 1),
		repAttn:    nn.NewAdditiveAttention(in, d),
		expAttn:    nn.NewAdditiveAttention(in, d),
		gate:       nn.NewLinear(in, 2*d, 2),
		exploreOut: nn.NewLinear(in, d, d),
	}, nil
}

// Name implements Model.
func (m *RepeatNet) Name() string { return "repeatnet" }

// Recommend implements Model. Unlike the pure-MIPS models, RepeatNet
// combines a full-catalog explore distribution with a session-local repeat
// distribution, so scoring happens inside the model.
func (m *RepeatNet) Recommend(session []int64) []topk.Result {
	session, x := m.prepare(session)
	if x == nil {
		return m.score(m.zeroRep())
	}
	states := m.gru.Forward(x)
	last := states.Row(len(session) - 1)

	// Repeat/explore discriminator from [attended; last].
	gw := m.repAttn.Weights(last, states)
	gw.Softmax()
	attended := nn.Apply(gw, states)
	gateLogits := m.gate.ForwardVec(tensor.Concat(attended, last.Clone()))
	gateLogits.Softmax()
	pRepeat, pExplore := gateLogits.At(0), gateLogits.At(1)

	// Repeat decoder: attention distribution over the session's own items.
	repScores := m.repAttn.Weights(last, x)
	repScores.Softmax()

	// Explore decoder: full-catalog scores from the projected session rep.
	ew := m.expAttn.Weights(last, states)
	ew.Softmax()
	exploreRep := m.exploreOut.ForwardVec(nn.Apply(ew, states))
	exploreScores := tensor.MatVec(m.emb.Weight, exploreRep)
	exploreScores.Softmax()
	exploreScores.ScaleInPlace(pExplore)

	if m.cfg.Faithful {
		m.scatterDense(exploreScores, session, repScores, pRepeat)
	} else {
		scatterSparse(exploreScores, session, repScores, pRepeat)
	}
	return topk.SelectFromScores(exploreScores.Data(), m.cfg.TopK)
}

// scatterSparse adds the repeat distribution onto the catalog scores in
// O(L): the fixed implementation.
func scatterSparse(catalog *tensor.Tensor, session []int64, repScores *tensor.Tensor, pRepeat float32) {
	for t, id := range session {
		catalog.Data()[id] += pRepeat * repScores.Data()[t]
	}
}

// scatterDense reproduces the RecBole inefficiency: it materialises a dense
// [C, L] one-hot matrix mapping session positions to catalog rows and
// performs a dense matrix-vector product — O(C·L) work and memory traffic
// for what is logically an O(L) sparse scatter.
func (m *RepeatNet) scatterDense(catalog *tensor.Tensor, session []int64, repScores *tensor.Tensor, pRepeat float32) {
	c := m.cfg.CatalogSize
	l := len(session)
	oneHot := tensor.New(c, l)
	for t, id := range session {
		oneHot.Set(1, int(id), t)
	}
	dense := tensor.MatVec(oneHot, repScores) // [C], dense product over sparse data
	dense.ScaleInPlace(pRepeat)
	catalog.AddInPlace(dense)
}

// CompiledRecommend implements JITCompilable: Recommend with the GRU, the
// attention query projections and the decoders' weights transposed once,
// and every buffer up to the C-length score vector kept by the plan. The
// faithful variant's dense scatter still allocates its [C, L] matrix.
func (m *RepeatNet) CompiledRecommend() func(session []int64) []topk.Result {
	d := m.cfg.Dim
	gru, repAttn, expAttn := m.gru.Plan(), m.repAttn.Plan(), m.expAttn.Plan()
	gate, exploreOut := m.gate.PlanVec(), m.exploreOut.PlanVec()
	var x, states, gw, rs []float32
	var xT, statesT, gwT, repScores tensor.Tensor
	concat, mixed := make([]float32, 2*d), make([]float32, d)
	gateLogits, exploreRep := tensor.New(2), tensor.New(d)
	exploreScores := tensor.New(m.cfg.CatalogSize)
	return func(session []int64) []topk.Result {
		session = truncate(session, m.cfg.MaxSessionLen)
		n := len(session)
		if n == 0 {
			return m.score(m.zeroRep())
		}
		x, states = tensor.Grow(x, n*d), tensor.Grow(states, n*d)
		gw, rs = tensor.Grow(gw, n), tensor.Grow(rs, n)
		xT.Bind(x, n, d)
		statesT.Bind(states, n, d)
		gwT.Bind(gw, n)
		repScores.Bind(rs, n)
		m.emb.LookupInto(x, session)
		gru.Forward(states, x)
		last := states[(n-1)*d:]

		// Repeat/explore discriminator from [attended; last].
		repAttn.WeightsInto(gw, last, &statesT)
		gwT.Softmax()
		nn.ApplyInto(concat[:d], gw, &statesT)
		copy(concat[d:], last)
		gate.Into(gateLogits.Data(), concat)
		gateLogits.Softmax()
		pRepeat, pExplore := gateLogits.At(0), gateLogits.At(1)

		// Repeat decoder: attention distribution over the session's own items.
		repAttn.WeightsInto(rs, last, &xT)
		repScores.Softmax()

		// Explore decoder: full-catalog scores from the projected session rep.
		expAttn.WeightsInto(gw, last, &statesT)
		gwT.Softmax()
		nn.ApplyInto(mixed, gw, &statesT)
		exploreOut.Into(exploreRep.Data(), mixed)
		tensor.MatVecInto(exploreScores, m.emb.Weight, exploreRep)
		exploreScores.Softmax()
		exploreScores.ScaleInPlace(pExplore)

		if m.cfg.Faithful {
			m.scatterDense(exploreScores, session, &repScores, pRepeat)
		} else {
			scatterSparse(exploreScores, session, &repScores, pRepeat)
		}
		return topk.SelectFromScores(exploreScores.Data(), m.cfg.TopK)
	}
}

// Cost implements Model. The explore decoder performs the usual MIPS plus a
// full-catalog softmax; the faithful variant adds the dense scatter's
// 2·C·L FLOPs and C·L·4 bytes of traffic.
func (m *RepeatNet) Cost(sessionLen int) Cost {
	d := float64(m.cfg.Dim)
	l := float64(clampLen(sessionLen, m.cfg.MaxSessionLen))
	cat := float64(m.cfg.CatalogSize)
	c := mipsCost(m.cfg.CatalogSize, m.cfg.Dim, m.cfg.TopK)
	c.EncoderFLOPs = l*12*d*d + 3*l*6*d*d + 2*d*d + 3*cat // GRU + three attentions + softmax over C
	c.KernelLaunches = int(l)*2 + 12
	if m.cfg.Faithful {
		c.DenseOverheadFLOPs = 2 * cat * l
		c.PerRequestBytes += cat * l * 4 * 2 // build + read the dense one-hot
	}
	return c
}
