package nn

import (
	"math"

	"etude/internal/tensor"
)

// MultiHeadAttention is standard scaled dot-product self-attention with h
// heads over a [seqLen, dim] input, as used by SASRec, GC-SAN and CORE.
type MultiHeadAttention struct {
	WQ, WK, WV, WO *Linear
	Heads          int
	dim            int
}

// NewMultiHeadAttention returns an initialised attention block. dim must be
// divisible by heads.
func NewMultiHeadAttention(in *Initializer, dim, heads int) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic("nn: dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		WQ:    NewLinear(in, dim, dim),
		WK:    NewLinear(in, dim, dim),
		WV:    NewLinear(in, dim, dim),
		WO:    NewLinear(in, dim, dim),
		Heads: heads,
		dim:   dim,
	}
}

// AttentionBuffers are the intermediates of one MultiHeadAttention pass
// over seqLen positions: Q, K, V and Out are [seqLen, dim], Scores is
// [seqLen, seqLen]. None may alias another or the pass's input or output.
type AttentionBuffers struct {
	Q, K, V, Out, Scores *tensor.Tensor
}

// Forward computes self-attention over x ([seqLen, dim]). If causal is true,
// position i attends only to positions ≤ i (the SASRec masking).
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, causal bool) *tensor.Tensor {
	seqLen := x.Dim(0)
	out := tensor.New(seqLen, a.dim)
	a.ForwardInto(out, x, causal, &AttentionBuffers{
		Q:      tensor.New(seqLen, a.dim),
		K:      tensor.New(seqLen, a.dim),
		V:      tensor.New(seqLen, a.dim),
		Out:    tensor.New(seqLen, a.dim),
		Scores: tensor.New(seqLen, seqLen),
	})
	return out
}

// ForwardInto is Forward into dst ([seqLen, dim]) through the buffers b.
// dst may alias x: x is read only by the Q, K and V projections, before dst
// is written.
func (a *MultiHeadAttention) ForwardInto(dst, x *tensor.Tensor, causal bool, b *AttentionBuffers) {
	a.ForwardRowsInto(dst, x, x, causal, b)
}

// ForwardRowsInto is ForwardInto for the last m positions only: xq holds the
// last m rows of x ([seqLen, dim]), and dst ([m, dim]) receives exactly the
// last m rows of ForwardInto(x), since every position's output depends on
// its own query and the keys and values of all positions. Q, Out and Scores
// of b are then [m, dim], [m, dim] and [m, seqLen]; K and V stay [seqLen,
// dim]. dst may alias xq or x, which are read only by the projections.
func (a *MultiHeadAttention) ForwardRowsInto(dst, xq, x *tensor.Tensor, causal bool, b *AttentionBuffers) {
	seqLen, m := x.Dim(0), xq.Dim(0)
	first := seqLen - m // the position of row 0 of xq
	q, k, v, out, scores := b.Q, b.K, b.V, b.Out, b.Scores
	a.WQ.ForwardInto(q, xq)
	a.WK.ForwardInto(k, x)
	a.WV.ForwardInto(v, x)
	out.Zero()

	headDim := a.dim / a.Heads
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for h := 0; h < a.Heads; h++ {
		off := h * headDim
		// scores[r][j] = q_r · k_j over this head's slice.
		for r := 0; r < m; r++ {
			qr := q.Data()[r*a.dim+off : r*a.dim+off+headDim]
			srow := scores.Data()[r*seqLen : (r+1)*seqLen]
			for j := 0; j < seqLen; j++ {
				if causal && j > first+r {
					srow[j] = float32(math.Inf(-1))
					continue
				}
				kj := k.Data()[j*a.dim+off : j*a.dim+off+headDim]
				srow[j] = tensor.Dot(qr, kj) * scale
			}
		}
		scores.SoftmaxRows()
		// out slice = scores × v over this head's slice.
		for r := 0; r < m; r++ {
			orow := out.Data()[r*a.dim+off : r*a.dim+off+headDim]
			srow := scores.Data()[r*seqLen : (r+1)*seqLen]
			for j := 0; j < seqLen; j++ {
				w := srow[j]
				if w == 0 {
					continue
				}
				vj := v.Data()[j*a.dim+off : j*a.dim+off+headDim]
				for c := range orow {
					orow[c] += w * vj[c]
				}
			}
		}
	}
	a.WO.ForwardInto(dst, out)
}

// LowRankAttention implements the LightSANs-style low-rank decomposed
// self-attention: instead of L×L attention, each position attends over kLat
// learned latent interest vectors, reducing the quadratic term to L×kLat.
type LowRankAttention struct {
	WQ, WK, WV, WO *Linear
	Latents        *tensor.Tensor // [kLat, dim] learned latent interests
	dim            int
}

// NewLowRankAttention returns an initialised low-rank attention block with
// kLat latent interests.
func NewLowRankAttention(in *Initializer, dim, kLat int) *LowRankAttention {
	return &LowRankAttention{
		WQ:      NewLinear(in, dim, dim),
		WK:      NewLinear(in, dim, dim),
		WV:      NewLinear(in, dim, dim),
		WO:      NewLinear(in, dim, dim),
		Latents: in.Xavier(kLat, dim),
		dim:     dim,
	}
}

// Forward computes item-to-interest attention over x ([seqLen, dim]):
// the sequence is first aggregated into the kLat latent interests (interest-
// to-item attention), then each position attends over the aggregated
// interests (item-to-interest attention).
func (a *LowRankAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	k := a.WK.Forward(x)
	v := a.WV.Forward(x)

	// Interest aggregation: latents attend over the sequence.
	aggScores := tensor.MatMul(a.Latents, tensor.Transpose(k)) // [kLat, seqLen]
	aggScores.ScaleInPlace(float32(1 / math.Sqrt(float64(a.dim))))
	aggScores.SoftmaxRows()
	agg := tensor.MatMul(aggScores, v) // [kLat, dim]

	// Item-to-interest attention: each position attends over agg.
	q := a.WQ.Forward(x)
	scores := tensor.MatMul(q, tensor.Transpose(agg)) // [seqLen, kLat]
	scores.ScaleInPlace(float32(1 / math.Sqrt(float64(a.dim))))
	scores.SoftmaxRows()
	out := tensor.MatMul(scores, agg) // [seqLen, dim]
	return a.WO.Forward(out)
}

// AdditiveAttention is the NARM/STAMP-style attention: score for each
// position is vᵀ·σ(W1·q + W2·h_t) where q is a query vector and h_t the
// sequence states.
type AdditiveAttention struct {
	W1, W2 *Linear
	V      *tensor.Tensor // [dim]
}

// NewAdditiveAttention returns an initialised additive attention block.
func NewAdditiveAttention(in *Initializer, dim int) *AdditiveAttention {
	return &AdditiveAttention{
		W1: NewLinearNoBias(in, dim, dim),
		W2: NewLinearNoBias(in, dim, dim),
		V:  in.Xavier(dim),
	}
}

// Weights returns the unnormalised attention scores of query against each
// row of states ([seqLen, dim]).
func (a *AdditiveAttention) Weights(query *tensor.Tensor, states *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(states.Dim(0))
	a.score(out.Data(), a.W1.ForwardVec(query).Data(), a.W2.Forward(states))
	return out
}

// score writes vᵀ·σ(wq + ws_t) for every row t of the projected states ws
// into dst, overwriting ws on the way.
func (a *AdditiveAttention) score(dst, wq []float32, ws *tensor.Tensor) {
	d := ws.Dim(1)
	for t := range dst {
		row := ws.Data()[t*d : (t+1)*d]
		for i, v := range wq {
			row[i] += v
		}
	}
	ws.Sigmoid()
	for t := range dst {
		dst[t] = tensor.Dot(a.V.Data(), ws.Data()[t*d:(t+1)*d])
	}
}

// AdditivePlan is Weights compiled for repeated calls: W1 transposed once
// (ForwardVec transposes it per call) and the projections written to
// scratch the plan keeps, grown to the longest states seen. Build it when a
// plan is compiled, not with the layer: LoadWeights overwrites weights in
// place. An AdditivePlan serves one call at a time.
type AdditivePlan struct {
	a      *AdditiveAttention
	w1     VecPlan
	wq, ws []float32
	proj   tensor.Tensor
}

// Plan compiles the attention.
func (a *AdditiveAttention) Plan() *AdditivePlan {
	return &AdditivePlan{a: a, w1: a.W1.PlanVec(), wq: make([]float32, a.W1.Weight.Dim(1))}
}

// WeightsInto writes Weights(query, states) into dst (length seqLen).
func (p *AdditivePlan) WeightsInto(dst, query []float32, states *tensor.Tensor) {
	n, d := states.Dim(0), p.a.W2.Weight.Dim(1)
	p.w1.Into(p.wq, query)
	p.ws = tensor.Grow(p.ws, n*d)
	p.proj.Bind(p.ws, n, d)
	p.a.W2.ForwardInto(&p.proj, states)
	p.a.score(dst[:n], p.wq, &p.proj)
}

// Apply returns the weighted sum of states by the (already normalised or
// unnormalised) weights w: Σ_t w_t · states_t.
func Apply(w, states *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(states.Dim(1))
	ApplyInto(out.Data(), w.Data(), states)
	return out
}

// ApplyInto is Apply into dst (length dim).
func ApplyInto(dst, w []float32, states *tensor.Tensor) {
	dim := states.Dim(1)
	clear(dst)
	for t := 0; t < states.Dim(0); t++ {
		wt := w[t]
		row := states.Data()[t*dim : (t+1)*dim]
		for c := range dst {
			dst[c] += wt * row[c]
		}
	}
}

func exp32(v float32) float32 {
	return float32(math.Exp(float64(v)))
}

func tanh32(v float32) float32 {
	return float32(math.Tanh(float64(v)))
}
