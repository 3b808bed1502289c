package model

import (
	"etude/internal/nn"
	"etude/internal/tensor"
)

// blockWorkspace holds every tensor the transformer blocks of one compiled
// plan need, so a request runs them without allocating. It is grown lazily
// to the longest session seen (sessions are truncated to MaxSessionLen
// first) and laid out compactly for L positions of width d:
//
//   - slab, 4·L·d: Q | K | V | attention output, and after the attention
//     the L×4d feed-forward hidden layer over the same memory;
//   - x, L·d: the residual stream, updated in place block after block;
//   - ln, L·d: the layer-norm output, which the attention's output
//     projection (WO) and the feed-forward's W2 then overwrite;
//   - scores, L·L: one head's attention scores.
//
// That is (6·L·d + L²)·4 bytes: 160 KB at d = 128, L = 50. The last block
// (forwardLastInto) computes one position only, through row views of the
// same memory: the last rows of x and ln, the first rows of Q, of the
// attention output, of the scores and of the hidden layer. All blocks of a
// plan share one workspace, and a workspace serves one call at a time.
type blockWorkspace struct {
	slab, x, ln, scores []float32

	xT, lnT, hidden tensor.Tensor
	q, k, v, out, s tensor.Tensor
	attn            nn.AttentionBuffers

	xLast, lnLast, hiddenLast tensor.Tensor
	qLast, outLast, sLast     tensor.Tensor
	attnLast                  nn.AttentionBuffers
}

// bind sizes the workspace for a session of n positions of width d and
// returns the residual stream as an [n, d] tensor. Its values, like every
// other buffer's, are stale until written.
func (ws *blockWorkspace) bind(n, d int) *tensor.Tensor {
	nd := n * d
	ws.slab = tensor.Grow(ws.slab, 4*nd)
	ws.x = tensor.Grow(ws.x, nd)
	ws.ln = tensor.Grow(ws.ln, nd)
	ws.scores = tensor.Grow(ws.scores, n*n)
	ws.xT.Bind(ws.x, n, d)
	ws.lnT.Bind(ws.ln, n, d)
	ws.hidden.Bind(ws.slab, n, 4*d)
	ws.q.Bind(ws.slab[:nd], n, d)
	ws.k.Bind(ws.slab[nd:2*nd], n, d)
	ws.v.Bind(ws.slab[2*nd:3*nd], n, d)
	ws.out.Bind(ws.slab[3*nd:], n, d)
	ws.s.Bind(ws.scores, n, n)
	ws.attn = nn.AttentionBuffers{Q: &ws.q, K: &ws.k, V: &ws.v, Out: &ws.out, Scores: &ws.s}

	ws.xLast.Bind(ws.x[nd-d:], 1, d)
	ws.lnLast.Bind(ws.ln[nd-d:], 1, d)
	ws.hiddenLast.Bind(ws.slab[:4*d], 1, 4*d)
	ws.qLast.Bind(ws.slab[:d], 1, d)
	ws.outLast.Bind(ws.slab[3*nd:3*nd+d], 1, d)
	ws.sLast.Bind(ws.scores[:n], 1, n)
	ws.attnLast = nn.AttentionBuffers{Q: &ws.qLast, K: &ws.k, V: &ws.v, Out: &ws.outLast, Scores: &ws.sLast}
	return &ws.xT
}

// forwardInto is forward over the workspace: the residual stream x (bound
// by ws.bind) is updated in place. x.AddInPlace(y) computes exactly what
// tensor.Add(x, y) does, so the result is forward's bit for bit.
func (b *transformerBlock) forwardInto(ws *blockWorkspace, x *tensor.Tensor, causal bool) {
	ln := &ws.lnT
	b.ln1.ForwardInto(ln, x)
	b.attn.ForwardInto(ln, ln, causal, &ws.attn)
	x.AddInPlace(ln)
	b.ln2.ForwardInto(ln, x)
	b.ffn.ForwardInto(ln, ln, &ws.hidden)
	x.AddInPlace(ln)
}

// forwardLastInto is forwardInto for the last block of a plan, whose only
// output read is the last row of x: it updates that row alone, bit for bit
// as forwardInto would, and leaves the other rows of x stale. Only the keys
// and values need every position, so the first layer norm and the K and V
// projections run over all rows; the query, the scores, the softmax, A·V,
// WO, both residual adds, the second layer norm and the feed-forward run on
// the last row. Each of those is computed row by row in forwardInto too, so
// the last row sees the same operations in the same order.
func (b *transformerBlock) forwardLastInto(ws *blockWorkspace, x *tensor.Tensor, causal bool) {
	ln, xl, lnl := &ws.lnT, &ws.xLast, &ws.lnLast
	b.ln1.ForwardInto(ln, x)
	b.attn.ForwardRowsInto(lnl, lnl, ln, causal, &ws.attnLast)
	xl.AddInPlace(lnl)
	b.ln2.ForwardInto(lnl, xl)
	b.ffn.ForwardInto(lnl, lnl, &ws.hiddenLast)
	xl.AddInPlace(lnl)
}
