package nn

import (
	"fmt"

	"etude/internal/tensor"
)

// Embedding maps item ids to d-dimensional vectors. The weight matrix rows
// double as the catalog representation scored by the final MIPS stage.
type Embedding struct {
	Weight *tensor.Tensor // [numItems, dim]
}

// NewEmbedding returns an Xavier-initialised embedding table.
func NewEmbedding(in *Initializer, numItems, dim int) *Embedding {
	return &Embedding{Weight: in.Xavier(numItems, dim)}
}

// NumItems returns the vocabulary size.
func (e *Embedding) NumItems() int { return e.Weight.Dim(0) }

// Dim returns the embedding dimension.
func (e *Embedding) Dim() int { return e.Weight.Dim(1) }

// Lookup gathers the rows for ids into a new [len(ids), dim] tensor.
func (e *Embedding) Lookup(ids []int64) *tensor.Tensor {
	out := tensor.New(len(ids), e.Dim())
	e.LookupInto(out.Data(), ids)
	return out
}

// LookupInto gathers the rows for ids into dst, row after row; dst must hold
// len(ids)·dim values.
func (e *Embedding) LookupInto(dst []float32, ids []int64) {
	d, w := e.Dim(), e.Weight.Data()
	if len(dst) != len(ids)*d {
		panic(fmt.Sprintf("nn: LookupInto of %d ids into %d values", len(ids), len(dst)))
	}
	for i, id := range ids {
		if id < 0 || id >= int64(e.NumItems()) {
			panic(fmt.Sprintf("nn: embedding id %d out of range [0,%d)", id, e.NumItems()))
		}
		copy(dst[i*d:(i+1)*d], w[int(id)*d:(int(id)+1)*d])
	}
}

// LookupOne gathers a single row into a new length-dim tensor.
func (e *Embedding) LookupOne(id int64) *tensor.Tensor {
	return e.Weight.Row(int(id)).Clone()
}

// Linear is a dense affine map y = xW + b.
type Linear struct {
	Weight *tensor.Tensor // [in, out]
	Bias   *tensor.Tensor // [out] or nil
}

// NewLinear returns an Xavier-initialised linear layer with bias.
func NewLinear(in *Initializer, inDim, outDim int) *Linear {
	return &Linear{Weight: in.Xavier(inDim, outDim), Bias: in.Zeros(outDim)}
}

// NewLinearNoBias returns an Xavier-initialised linear layer without bias.
func NewLinearNoBias(in *Initializer, inDim, outDim int) *Linear {
	return &Linear{Weight: in.Xavier(inDim, outDim)}
}

// Forward applies the layer to a [n, in] matrix, returning [n, out].
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), l.Weight.Dim(1))
	l.ForwardInto(out, x)
	return out
}

// ForwardInto is Forward writing into dst ([n, out]), which must not alias x.
func (l *Linear) ForwardInto(dst, x *tensor.Tensor) {
	tensor.MatMulInto(dst, x, l.Weight)
	if l.Bias != nil {
		dst.AddRowVector(l.Bias)
	}
}

// ForwardVec applies the layer to a single length-in vector.
func (l *Linear) ForwardVec(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatVec(tensor.Transpose(l.Weight), x)
	if l.Bias != nil {
		out.AddInPlace(l.Bias)
	}
	return out
}

// VecPlan is ForwardVec compiled for repeated calls: the weight is
// transposed once, where ForwardVec transposes it on every call. Build it
// when a plan is compiled, not with the layer: LoadWeights overwrites
// weights in place, and a transposed copy kept on the layer would go stale.
type VecPlan struct {
	wT   []float32 // [out, in]
	bias []float32 // nil without bias
}

// PlanVec returns the compiled form of ForwardVec.
func (l *Linear) PlanVec() VecPlan {
	p := VecPlan{wT: tensor.Transpose(l.Weight).Data()}
	if l.Bias != nil {
		p.bias = l.Bias.Data()
	}
	return p
}

// Into writes ForwardVec(x) into dst (length out) with ForwardVec's
// operations in its order.
func (p VecPlan) Into(dst, x []float32) {
	tensor.DotRows(dst, p.wT, x)
	for i, b := range p.bias {
		dst[i] += b
	}
}

// LayerNorm is layer normalisation with learned gain and bias.
type LayerNorm struct {
	Gamma *tensor.Tensor
	Beta  *tensor.Tensor
	Eps   float32
}

// NewLayerNorm returns a LayerNorm over vectors of length dim.
func NewLayerNorm(in *Initializer, dim int) *LayerNorm {
	return &LayerNorm{Gamma: in.Ones(dim), Beta: in.Zeros(dim), Eps: 1e-6}
}

// Forward normalises each row of x in a new tensor.
func (ln *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	ln.ForwardInto(out, x)
	return out
}

// ForwardInto normalises each row of x into dst, which has x's size and may
// be x itself.
func (ln *LayerNorm) ForwardInto(dst, x *tensor.Tensor) {
	dst.CopyFrom(x)
	if dst.Dims() == 1 {
		dst.LayerNorm(ln.Gamma, ln.Beta, ln.Eps)
	} else {
		dst.LayerNormRows(ln.Gamma, ln.Beta, ln.Eps)
	}
}

// GRUCell is a single gated recurrent unit step.
//
//	r = σ(x·Wir + h·Whr + br)
//	z = σ(x·Wiz + h·Whz + bz)
//	n = tanh(x·Win + r ⊙ (h·Whn) + bn)
//	h' = (1-z) ⊙ n + z ⊙ h
type GRUCell struct {
	Wi *tensor.Tensor // [in, 3*hidden]: reset | update | new
	Wh *tensor.Tensor // [hidden, 3*hidden]
	Bi *tensor.Tensor // [3*hidden]
	Bh *tensor.Tensor // [3*hidden]

	inDim, hidden int
}

// NewGRUCell returns an initialised GRU cell.
func NewGRUCell(in *Initializer, inDim, hidden int) *GRUCell {
	return &GRUCell{
		Wi:     in.Xavier(inDim, 3*hidden),
		Wh:     in.Xavier(hidden, 3*hidden),
		Bi:     in.Zeros(3 * hidden),
		Bh:     in.Zeros(3 * hidden),
		inDim:  inDim,
		hidden: hidden,
	}
}

// Hidden returns the hidden-state size.
func (g *GRUCell) Hidden() int { return g.hidden }

// Step computes the next hidden state for input x (length inDim) and
// previous hidden state h (length hidden).
func (g *GRUCell) Step(x, h *tensor.Tensor) *tensor.Tensor {
	gi := tensor.MatVec(tensor.Transpose(g.Wi), x)
	gi.AddInPlace(g.Bi)
	gh := tensor.MatVec(tensor.Transpose(g.Wh), h)
	gh.AddInPlace(g.Bh)
	out := tensor.New(g.hidden)
	g.combine(out.Data(), gi.Data(), gh.Data(), h.Data())
	return out
}

// combine writes the gated update into dst. dst may alias h: element j of h
// is read only before element j of dst is written.
func (g *GRUCell) combine(dst, gi, gh, h []float32) {
	hd := g.hidden
	for j := 0; j < hd; j++ {
		r := sigmoid32(gi[j] + gh[j])
		z := sigmoid32(gi[hd+j] + gh[hd+j])
		n := tanh32(gi[2*hd+j] + r*gh[2*hd+j])
		dst[j] = (1-z)*n + z*h[j]
	}
}

// GRU runs one or more stacked GRU layers over a sequence.
type GRU struct {
	Cells []*GRUCell
}

// NewGRU returns numLayers stacked GRU cells; the first maps inDim→hidden,
// the rest hidden→hidden.
func NewGRU(in *Initializer, inDim, hidden, numLayers int) *GRU {
	cells := make([]*GRUCell, numLayers)
	for i := range cells {
		d := hidden
		if i == 0 {
			d = inDim
		}
		cells[i] = NewGRUCell(in, d, hidden)
	}
	return &GRU{Cells: cells}
}

// Forward runs the stack over x ([seqLen, inDim]) and returns all top-layer
// hidden states as [seqLen, hidden].
func (g *GRU) Forward(x *tensor.Tensor) *tensor.Tensor {
	seqLen := x.Dim(0)
	cur := x
	for _, cell := range g.Cells {
		states := tensor.New(seqLen, cell.Hidden())
		h := tensor.New(cell.Hidden())
		for t := 0; t < seqLen; t++ {
			h = cell.Step(cur.Row(t), h)
			copy(states.Data()[t*cell.Hidden():(t+1)*cell.Hidden()], h.Data())
		}
		cur = states
	}
	return cur
}

// GRUPlan is a GRU stack compiled for repeated inference: every cell's
// weights are transposed once and its gate buffers kept, so a step
// allocates nothing (Step transposes both weight matrices on every click).
// Build it when a plan is compiled, not with the cells: LoadWeights
// overwrites weights in place. A GRUPlan serves one call at a time.
type GRUPlan struct {
	cells []gruStep
	h0    []float32 // the zero initial state; never written
}

type gruStep struct {
	cell     *GRUCell
	wiT, whT []float32 // [3*hidden, in] and [3*hidden, hidden]
	gi, gh   []float32
}

// Plan compiles the stack.
func (g *GRU) Plan() *GRUPlan {
	p := &GRUPlan{}
	for _, c := range g.Cells {
		p.cells = append(p.cells, gruStep{
			cell: c,
			wiT:  tensor.Transpose(c.Wi).Data(),
			whT:  tensor.Transpose(c.Wh).Data(),
			gi:   make([]float32, 3*c.hidden),
			gh:   make([]float32, 3*c.hidden),
		})
		p.h0 = make([]float32, max(len(p.h0), c.hidden))
	}
	return p
}

// Forward is GRU.Forward into caller buffers: it runs the stack over the
// rows of x ([n, inDim], row-major) and writes the top layer's hidden
// states to states ([n, hidden]). Layers above the first run in place over
// states: step t reads row t of the layer below before it overwrites it.
func (p *GRUPlan) Forward(states, x []float32) {
	for i := range p.cells {
		c := &p.cells[i]
		in, inDim, hd := x, c.cell.inDim, c.cell.hidden
		if i > 0 {
			in = states
		}
		n := len(states) / hd
		if len(states) != n*hd || len(in) != n*inDim {
			panic(fmt.Sprintf("nn: GRUPlan over %d inputs into %d states", len(in), len(states)))
		}
		h := p.h0[:hd]
		for t := 0; t < n; t++ {
			dst := states[t*hd : (t+1)*hd]
			c.step(dst, in[t*inDim:(t+1)*inDim], h)
			h = dst
		}
	}
}

// step is Step into dst with the transposed weights; dst may alias h.
func (c *gruStep) step(dst, x, h []float32) {
	tensor.DotRows(c.gi, c.wiT, x)
	for i, b := range c.cell.Bi.Data() {
		c.gi[i] += b
	}
	tensor.DotRows(c.gh, c.whT, h)
	for i, b := range c.cell.Bh.Data() {
		c.gh[i] += b
	}
	c.cell.combine(dst, c.gi, c.gh, h)
}

// FeedForward is the transformer position-wise two-layer MLP with GELU.
type FeedForward struct {
	W1, W2 *Linear
}

// NewFeedForward returns a dim → inner → dim feed-forward block.
func NewFeedForward(in *Initializer, dim, inner int) *FeedForward {
	return &FeedForward{W1: NewLinear(in, dim, inner), W2: NewLinear(in, inner, dim)}
}

// Forward applies the block row-wise to [n, dim].
func (f *FeedForward) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), f.W2.Weight.Dim(1))
	f.ForwardInto(out, x, tensor.New(x.Dim(0), f.W1.Weight.Dim(1)))
	return out
}

// ForwardInto is Forward into dst ([n, dim]) through hidden ([n, inner])
// scratch. dst may alias x, which is read only before dst is written.
func (f *FeedForward) ForwardInto(dst, x, hidden *tensor.Tensor) {
	f.W1.ForwardInto(hidden, x)
	hidden.GELU()
	f.W2.ForwardInto(dst, hidden)
}

func sigmoid32(v float32) float32 {
	return 1 / (1 + exp32(-v))
}
