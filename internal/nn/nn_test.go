package nn

import (
	"math"
	"testing"
	"testing/quick"

	"etude/internal/tensor"
)

func TestInitializerDeterministic(t *testing.T) {
	a := NewInitializer(42).Xavier(4, 4)
	b := NewInitializer(42).Xavier(4, 4)
	if !a.AllClose(b, 0) {
		t.Fatalf("same seed must yield identical weights")
	}
	c := NewInitializer(43).Xavier(4, 4)
	if a.AllClose(c, 0) {
		t.Fatalf("different seeds should differ")
	}
}

func TestXavierRange(t *testing.T) {
	w := NewInitializer(1).Xavier(10, 10)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range w.Data() {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	in := NewInitializer(2)
	e := NewEmbedding(in, 5, 3)
	out := e.Lookup([]int64{0, 4, 2})
	if out.Dim(0) != 3 || out.Dim(1) != 3 {
		t.Fatalf("lookup shape = %v", out.Shape())
	}
	if !out.Row(1).AllClose(e.Weight.Row(4), 0) {
		t.Fatalf("row mismatch")
	}
	one := e.LookupOne(2)
	if !one.AllClose(e.Weight.Row(2), 0) {
		t.Fatalf("LookupOne mismatch")
	}
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewEmbedding(NewInitializer(1), 3, 2).Lookup([]int64{3})
}

func TestLinearForward(t *testing.T) {
	l := &Linear{
		Weight: tensor.FromSlice([]float32{1, 0, 0, 1, 1, 1}, 3, 2),
		Bias:   tensor.FromSlice([]float32{10, 20}, 2),
	}
	x := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	out := l.Forward(x)
	// [1*1+2*0+3*1, 1*0+2*1+3*1] + [10,20] = [4+10, 5+20]
	if out.At(0, 0) != 14 || out.At(0, 1) != 25 {
		t.Fatalf("Linear.Forward = %v", out.Data())
	}
	vec := l.ForwardVec(tensor.FromSlice([]float32{1, 2, 3}, 3))
	if vec.At(0) != 14 || vec.At(1) != 25 {
		t.Fatalf("Linear.ForwardVec = %v", vec.Data())
	}
}

func TestLinearNoBias(t *testing.T) {
	in := NewInitializer(3)
	l := NewLinearNoBias(in, 4, 2)
	if l.Bias != nil {
		t.Fatalf("NoBias layer has a bias")
	}
	out := l.Forward(tensor.New(1, 4))
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 {
		t.Fatalf("zero input through biasless layer must be zero")
	}
}

func TestLayerNormForward(t *testing.T) {
	in := NewInitializer(4)
	ln := NewLayerNorm(in, 4)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 2, 4)
	out := ln.Forward(x)
	for i := 0; i < 2; i++ {
		if m := out.Row(i).Mean(); math.Abs(float64(m)) > 1e-4 {
			t.Fatalf("row %d mean = %v", i, m)
		}
	}
	// 1-D path
	v := ln.Forward(tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
	if m := v.Mean(); math.Abs(float64(m)) > 1e-4 {
		t.Fatalf("vector mean = %v", m)
	}
}

func TestGRUCellStepProperties(t *testing.T) {
	in := NewInitializer(5)
	cell := NewGRUCell(in, 4, 6)
	x := in.Normal(1, 4)
	h0 := tensor.New(6)
	h1 := cell.Step(x, h0)
	if h1.Dim(0) != 6 {
		t.Fatalf("hidden size = %v", h1.Shape())
	}
	if h1.HasNaN() {
		t.Fatalf("NaN in GRU output")
	}
	// GRU hidden state is a convex combination of tanh output and previous
	// state, so every component must stay in (-1, 1) when h0 is zero.
	for _, v := range h1.Data() {
		if v <= -1 || v >= 1 {
			t.Fatalf("GRU state %v out of (-1,1)", v)
		}
	}
	// Determinism.
	h1b := cell.Step(x, h0)
	if !h1.AllClose(h1b, 0) {
		t.Fatalf("GRU step must be deterministic")
	}
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestGRUPlanMatchesForward: the compiled stack equals GRU.Forward bit for
// bit, single and stacked, and on a reused plan after a longer sequence.
func TestGRUPlanMatchesForward(t *testing.T) {
	in := NewInitializer(6)
	for _, layers := range []int{1, 2} {
		g := NewGRU(in, 4, 5, layers)
		p := g.Plan()
		for _, n := range []int{7, 1, 3} {
			x := in.Normal(1, n, 4)
			states := make([]float32, n*5)
			p.Forward(states, x.Data())
			sameBits(t, "GRUPlan.Forward", states, g.Forward(x).Data())
		}
	}
}

// TestDestinationFormsMatchAllocatingForms holds every Into form to the
// allocating form it replaces on a compiled path, bit for bit, including
// the in-place aliasing the transformer workspace relies on.
func TestDestinationFormsMatchAllocatingForms(t *testing.T) {
	in := NewInitializer(15)
	x := in.Normal(1, 6, 8)

	l := NewLinear(in, 8, 3)
	l.Bias = in.Normal(1, 3)
	vec := make([]float32, 3)
	l.PlanVec().Into(vec, x.Row(2).Data())
	sameBits(t, "VecPlan.Into", vec, l.ForwardVec(x.Row(2)).Data())

	ln := NewLayerNorm(in, 8)
	ln.Gamma, ln.Beta = in.Normal(1, 8), in.Normal(1, 8)
	y := x.Clone()
	ln.ForwardInto(y, y)
	sameBits(t, "LayerNorm.ForwardInto in place", y.Data(), ln.Forward(x).Data())

	ff := NewFeedForward(in, 8, 32)
	y = x.Clone()
	ff.ForwardInto(y, y, tensor.New(6, 32))
	sameBits(t, "FeedForward.ForwardInto in place", y.Data(), ff.Forward(x).Data())

	mha := NewMultiHeadAttention(in, 8, 2)
	for _, causal := range []bool{false, true} {
		y = x.Clone()
		b := &AttentionBuffers{Q: tensor.Full(9, 6, 8), K: tensor.Full(9, 6, 8), V: tensor.Full(9, 6, 8),
			Out: tensor.Full(9, 6, 8), Scores: tensor.Full(9, 6, 6)} // stale values must not leak
		mha.ForwardInto(y, y, causal, b)
		sameBits(t, "MultiHeadAttention.ForwardInto in place", y.Data(), mha.Forward(x, causal).Data())
	}

	aa := NewAdditiveAttention(in, 8)
	p := aa.Plan()
	for _, n := range []int{6, 2, 6} {
		states := x.Rows(0, n)
		w := make([]float32, n)
		p.WeightsInto(w, x.Row(5).Data(), states)
		want := aa.Weights(x.Row(5), states)
		sameBits(t, "AdditivePlan.WeightsInto", w, want.Data())
		got := tensor.Full(7, 8)
		ApplyInto(got.Data(), w, states)
		sameBits(t, "ApplyInto", got.Data(), Apply(want, states).Data())
	}
}

func TestGRUForwardShapeAndStacking(t *testing.T) {
	in := NewInitializer(7)
	g := NewGRU(in, 3, 5, 2)
	x := in.Normal(1, 4, 3)
	out := g.Forward(x)
	if out.Dim(0) != 4 || out.Dim(1) != 5 {
		t.Fatalf("GRU output shape = %v", out.Shape())
	}
	if out.HasNaN() {
		t.Fatalf("NaN in stacked GRU output")
	}
}

func TestGRUSequenceDependsOnHistory(t *testing.T) {
	in := NewInitializer(8)
	g := NewGRU(in, 3, 4, 1)
	a := in.Normal(1, 3, 3)
	b := a.Clone()
	// Perturb the first element; the last hidden state must change.
	b.Set(b.At(0, 0)+1, 0, 0)
	ha := g.Forward(a).Row(2)
	hb := g.Forward(b).Row(2)
	if ha.AllClose(hb, 1e-9) {
		t.Fatalf("GRU must propagate history")
	}
}

func TestFeedForward(t *testing.T) {
	in := NewInitializer(9)
	ff := NewFeedForward(in, 4, 8)
	x := in.Normal(1, 2, 4)
	out := ff.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 4 {
		t.Fatalf("FFN shape = %v", out.Shape())
	}
}

func TestMultiHeadAttentionShape(t *testing.T) {
	in := NewInitializer(10)
	mha := NewMultiHeadAttention(in, 8, 2)
	x := in.Normal(1, 5, 8)
	out := mha.Forward(x, false)
	if out.Dim(0) != 5 || out.Dim(1) != 8 {
		t.Fatalf("MHA shape = %v", out.Shape())
	}
	if out.HasNaN() {
		t.Fatalf("NaN in MHA output")
	}
}

func TestMultiHeadAttentionCausalMask(t *testing.T) {
	in := NewInitializer(11)
	mha := NewMultiHeadAttention(in, 8, 2)
	x := in.Normal(1, 6, 8)
	causal := mha.Forward(x, true)

	// With a causal mask, output at position 0 must not depend on later
	// positions: perturb the last input row and compare row 0.
	y := x.Clone()
	y.Row(5).AddScalar(3)
	causal2 := mha.Forward(y, true)
	if !causal.Row(0).AllClose(causal2.Row(0), 1e-6) {
		t.Fatalf("causal attention leaked future positions")
	}
	// Without mask, it must depend on them.
	full := mha.Forward(x, false)
	full2 := mha.Forward(y, false)
	if full.Row(0).AllClose(full2.Row(0), 1e-9) {
		t.Fatalf("unmasked attention ignored other positions")
	}
}

func TestMultiHeadAttentionBadHeadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewMultiHeadAttention(NewInitializer(1), 8, 3)
}

func TestLowRankAttentionShape(t *testing.T) {
	in := NewInitializer(12)
	lra := NewLowRankAttention(in, 8, 3)
	x := in.Normal(1, 7, 8)
	out := lra.Forward(x)
	if out.Dim(0) != 7 || out.Dim(1) != 8 {
		t.Fatalf("LowRank shape = %v", out.Shape())
	}
	if out.HasNaN() {
		t.Fatalf("NaN in low-rank attention output")
	}
}

func TestAdditiveAttention(t *testing.T) {
	in := NewInitializer(13)
	aa := NewAdditiveAttention(in, 4)
	states := in.Normal(1, 5, 4)
	q := in.Normal(1, 4)
	w := aa.Weights(q, states)
	if w.Dim(0) != 5 {
		t.Fatalf("weights shape = %v", w.Shape())
	}
	agg := Apply(w, states)
	if agg.Dim(0) != 4 {
		t.Fatalf("apply shape = %v", agg.Shape())
	}
	// Apply with one-hot weights must pick out the row.
	oneHot := tensor.New(5)
	oneHot.Set(1, 3)
	picked := Apply(oneHot, states)
	if !picked.AllClose(states.Row(3), 1e-6) {
		t.Fatalf("Apply with one-hot failed")
	}
}

func TestBuildSessionGraph(t *testing.T) {
	g := BuildSessionGraph([]int64{10, 20, 10, 30})
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	if g.Nodes[0] != 10 || g.Nodes[1] != 20 || g.Nodes[2] != 30 {
		t.Fatalf("node order = %v", g.Nodes)
	}
	wantAlias := []int{0, 1, 0, 2}
	for i, a := range g.Alias {
		if a != wantAlias[i] {
			t.Fatalf("alias = %v", g.Alias)
		}
	}
	// Edges: 10→20, 20→10, 10→30. Out-degree of node 0 (item 10) is 2,
	// normalised to 0.5 each.
	if g.AOut.At(0, 1) != 0.5 || g.AOut.At(0, 2) != 0.5 {
		t.Fatalf("AOut row 0 = %v %v", g.AOut.At(0, 1), g.AOut.At(0, 2))
	}
	if g.AOut.At(1, 0) != 1 {
		t.Fatalf("AOut(1,0) = %v", g.AOut.At(1, 0))
	}
	// In-adjacency mirrors: node 0 receives from node 1.
	if g.AIn.At(0, 1) != 1 {
		t.Fatalf("AIn(0,1) = %v", g.AIn.At(0, 1))
	}
}

func TestBuildSessionGraphSingleItem(t *testing.T) {
	g := BuildSessionGraph([]int64{7})
	if len(g.Nodes) != 1 || g.AOut.At(0, 0) != 0 {
		t.Fatalf("single-click graph wrong: %+v", g)
	}
}

func TestGGNNPropagate(t *testing.T) {
	in := NewInitializer(14)
	cell := NewGGNNCell(in, 6)
	g := BuildSessionGraph([]int64{1, 2, 3, 1})
	h := in.Normal(1, len(g.Nodes), 6)
	out := cell.Propagate(g, h, 2)
	if out.Dim(0) != len(g.Nodes) || out.Dim(1) != 6 {
		t.Fatalf("GGNN shape = %v", out.Shape())
	}
	if out.HasNaN() {
		t.Fatalf("NaN in GGNN output")
	}
	// Zero steps returns the input unchanged.
	same := cell.Propagate(g, h, 0)
	if !same.AllClose(h, 0) {
		t.Fatalf("0-step propagation must be identity")
	}
}

// Property: session graph adjacency rows are valid sub-stochastic vectors
// (each row sums to 0 or 1) and Alias always points into Nodes.
func TestSessionGraphProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		session := make([]int64, len(raw))
		for i, r := range raw {
			session[i] = int64(r % 16)
		}
		g := BuildSessionGraph(session)
		for _, a := range g.Alias {
			if a < 0 || a >= len(g.Nodes) {
				return false
			}
		}
		for _, m := range []*tensor.Tensor{g.AIn, g.AOut} {
			n := m.Dim(1)
			for i := 0; i < m.Dim(0); i++ {
				var sum float64
				for j := 0; j < n; j++ {
					v := float64(m.At(i, j))
					if v < 0 {
						return false
					}
					sum += v
				}
				if sum != 0 && math.Abs(sum-1) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParamsEnumerations: every layer exposes its full parameter set in a
// stable order (the weight-serialisation contract).
func TestParamsEnumerations(t *testing.T) {
	in := NewInitializer(1)
	cases := []struct {
		name string
		src  ParamSource
		want int
	}{
		{"embedding", NewEmbedding(in, 4, 3), 1},
		{"linear", NewLinear(in, 3, 2), 2},
		{"linear-nobias", NewLinearNoBias(in, 3, 2), 1},
		{"layernorm", NewLayerNorm(in, 4), 2},
		{"grucell", NewGRUCell(in, 3, 4), 4},
		{"gru-2layer", NewGRU(in, 3, 4, 2), 8},
		{"ffn", NewFeedForward(in, 4, 8), 4},
		{"mha", NewMultiHeadAttention(in, 4, 2), 8},
		{"lowrank", NewLowRankAttention(in, 4, 2), 9},
		{"additive", NewAdditiveAttention(in, 4), 3},
		{"ggnn", NewGGNNCell(in, 4), 8},
	}
	for _, tc := range cases {
		params := tc.src.Params()
		if len(params) != tc.want {
			t.Errorf("%s: %d params, want %d", tc.name, len(params), tc.want)
		}
		for i, p := range params {
			if p == nil || p.Len() == 0 {
				t.Errorf("%s: param %d degenerate", tc.name, i)
			}
		}
	}
}
