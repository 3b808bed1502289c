package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkGemmRow compares the platform kernel with gemmRowGeneric for one row
// a of k values against b, k rows of n columns, with every slice placed off
// floats into its allocation, so they start at every alignment a Tensor.Rows
// view can have; a canary after c catches a write past its end.
func checkGemmRow(t *testing.T, a, b []float32, n, off int) {
	t.Helper()
	k := len(a)
	abuf := make([]float32, off+k)
	bbuf := make([]float32, off+k*n)
	cbuf := make([]float32, off+n+1)
	av, bv, c := abuf[off:], bbuf[off:], cbuf[off:off+n]
	copy(av, a)
	copy(bv, b)
	for j := range c {
		c[j] = nan // stale values the kernel must overwrite
	}
	const canary = 12345
	cbuf[off+n] = canary
	gemmRow(c, av, bv)
	if cbuf[off+n] != canary {
		t.Fatalf("n=%d k=%d off=%d: kernel wrote past c", n, k, off)
	}
	want := make([]float32, n)
	gemmRowGeneric(want, av, bv)
	for j := range want {
		if !sameBits(c[j], want[j]) {
			t.Fatalf("n=%d k=%d off=%d column %d: kernel %g (%08x), Go loop %g (%08x)",
				n, k, off, j, c[j], math.Float32bits(c[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// TestGemmRowMatchesGoLoop runs the kernel over every width from 1 to 97 —
// whole 32-column blocks, 4-column blocks and single-column tails in every
// combination — at depths that cover an empty sum and the sasrec shapes,
// first on normal values, then with signed zeros, infinities and NaN in a
// (a zero skips a row of b, a NaN or infinity must not) and signed zeros and
// NaN in b.
func TestGemmRowMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	aSpecials := []float32{0, float32(math.Copysign(0, -1)), nan, inf, -inf}
	bSpecials := []float32{0, float32(math.Copysign(0, -1)), nan}
	for n := 1; n <= 97; n++ {
		for _, k := range []int{0, 1, 3, 37, 128} {
			for off := 0; off <= 3; off++ {
				a, b := make([]float32, k), make([]float32, k*n)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range b {
					b[i] = float32(rng.NormFloat64())
				}
				checkGemmRow(t, a, b, n, off)
				for i := range a {
					if rng.Intn(4) == 0 {
						a[i] = aSpecials[rng.Intn(len(aSpecials))]
					}
				}
				checkGemmRow(t, a, b, n, off)
				for i := range b {
					if rng.Intn(8) == 0 {
						b[i] = bSpecials[rng.Intn(len(bSpecials))]
					}
				}
				checkGemmRow(t, a, b, n, off)
			}
		}
	}
}

// A zero in a skips its row of b outright, so an infinity there cannot make
// a NaN, and a −0 product added to the +0 start stays +0.
func TestGemmRowSignedZeros(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 4, 32, 37} {
		b := make([]float32, 2*n)
		for j := 0; j < n; j++ {
			b[j], b[n+j] = inf, 0
		}
		c := make([]float32, n)
		gemmRow(c, []float32{negZero, -1}, b)
		for j, v := range c {
			if math.Float32bits(v) != 0 {
				t.Fatalf("n=%d column %d: %g (%08x), want +0", n, j, v, math.Float32bits(v))
			}
		}
	}
}

// FuzzGemmRow reads the input as raw float32 bit patterns — so the fuzzer
// reaches NaN payloads, denormals and infinities directly — and splits it
// into a row a of k values and b, k rows of n columns, k as large as the
// input allows.
func FuzzGemmRow(f *testing.F) {
	seed := func(n uint8, vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(n, uint8(len(vals)%4), b)
	}
	seed(1, 2, 3)
	seed(3, 1, 0, 2, 3, 4, 5, 6, 7, 8)
	seed(4, nan, inf, 1, -1, 0, 1, 0, 1, nan, 2, 2, 2, 2, 3, 3, 3, 3)
	seed(5, float32(math.Copysign(0, -1)), -inf, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2)
	big := make([]float32, 2*33)
	for i := range big {
		big[i] = float32(i) - 20
	}
	seed(32, big...)
	f.Fuzz(func(t *testing.T, n, off uint8, raw []byte) {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		cols := int(n)%97 + 1
		k := len(vals) / (cols + 1)
		checkGemmRow(t, vals[:k], vals[k:k+k*cols], cols, int(off%4))
	})
}

// benchMatMul times MatMulInto on a random [m,k] × [k,n] product and
// reports the rate as 2·m·k·n floating-point operations per second.
func benchMatMul(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a, w, dst := randTensor(rng, m, k), randTensor(rng, k, n), New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, w)
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// The products of one sasrec block at the encoder_long shape (d = 128, 50
// clicks): the Q/K/V/O projections, the two feed-forward layers, and the
// feed-forward's first layer on one row, as the pruned last block runs it.
func BenchmarkMatMulInto50x128x128(b *testing.B) { benchMatMul(b, 50, 128, 128) }
func BenchmarkMatMulInto50x128x512(b *testing.B) { benchMatMul(b, 50, 128, 512) }
func BenchmarkMatMulInto50x512x128(b *testing.B) { benchMatMul(b, 50, 512, 128) }
func BenchmarkMatMulInto1x128x512(b *testing.B)  { benchMatMul(b, 1, 128, 512) }
