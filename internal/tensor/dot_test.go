package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameBits is the kernel contract: equal bit for bit, except that a NaN
// only has to stay a NaN — which NaN an addition of two NaNs returns
// depends on operand order, which the compiler chooses for dotGeneric.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkDotRows compares the platform kernel with dotGeneric on rows×d
// values of a placed `off` floats into their allocations, so rows start at
// every alignment a Tensor.Rows view can have.
func checkDotRows(t *testing.T, a, q []float32, rows, d, off int) {
	t.Helper()
	abuf := make([]float32, off+rows*d)
	qbuf := make([]float32, off+d)
	dbuf := make([]float32, off+rows+1)
	av, qv, dst := abuf[off:], qbuf[off:], dbuf[off:off+rows]
	copy(av, a)
	copy(qv, q)
	const canary = 12345
	dbuf[off+rows] = canary
	DotRows(dst, av, qv)
	if dbuf[off+rows] != canary {
		t.Fatalf("rows=%d d=%d off=%d: kernel wrote past dst", rows, d, off)
	}
	for r := 0; r < rows; r++ {
		want := dotGeneric(av[r*d:(r+1)*d], qv)
		if !sameBits(dst[r], want) {
			t.Fatalf("rows=%d d=%d off=%d row %d: kernel %g (%08x), dotGeneric %g (%08x)",
				rows, d, off, r, dst[r], math.Float32bits(dst[r]), want, math.Float32bits(want))
		}
		if got := Dot(av[r*d:(r+1)*d], qv); !sameBits(got, want) {
			t.Fatalf("d=%d off=%d: Dot %g, dotGeneric %g", d, off, got, want)
		}
	}
}

var (
	inf      = float32(math.Inf(1))
	nan      = float32(math.NaN())
	specials = []float32{
		0, float32(math.Copysign(0, -1)), inf, -inf, nan,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, // denormals
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
)

// The kernel scores rows four at a time and the last len(dst) mod 4 one at a
// time: row counts 0…9, 13 and 67 take every split between the two and
// several blocks of four in a row.
func TestDotKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dims := []int{128, 131}
	for d := 0; d <= 67; d++ {
		dims = append(dims, d)
	}
	rowCounts := []int{13, 67}
	for rows := 0; rows <= 9; rows++ {
		rowCounts = append(rowCounts, rows)
	}
	for _, d := range dims {
		for _, rows := range rowCounts {
			for off := 0; off <= 3; off++ {
				a, q := make([]float32, rows*d), make([]float32, d)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				for i := range q {
					q[i] = float32(rng.NormFloat64())
				}
				checkDotRows(t, a, q, rows, d, off)
				// The same shape with a special value in about one place in
				// four: signed zeros, infinities, NaN, denormals, overflow.
				for i := range a {
					if rng.Intn(4) == 0 {
						a[i] = specials[rng.Intn(len(specials))]
					}
				}
				for i := range q {
					if rng.Intn(4) == 0 {
						q[i] = specials[rng.Intn(len(specials))]
					}
				}
				checkDotRows(t, a, q, rows, d, off)
			}
			if d == 0 || rows > 13 {
				continue
			}
			// Each special value in each row, so in every lane of a block
			// of four and in the single rows after it, at a position that
			// moves with the value through the four-lane part and the tail.
			a, q := make([]float32, rows*d), make([]float32, d)
			for si, s := range specials {
				for r := 0; r < rows; r++ {
					for i := range a {
						a[i] = float32(rng.NormFloat64())
					}
					for i := range q {
						q[i] = float32(rng.NormFloat64())
					}
					a[r*d+(r+si)%d] = s
					checkDotRows(t, a, q, rows, d, 0)
				}
			}
		}
	}
}

func TestDotRowsLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "DotRows with a short matrix")
	DotRows(make([]float32, 2), make([]float32, 5), make([]float32, 3))
}

// MatVecInto on a Rows view (4-byte aligned, mid-allocation) goes through
// the same kernel.
func TestMatVecIntoRowsViewMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, q := randTensor(rng, 37, 19), randTensor(rng, 19)
	view := a.Rows(5, 30)
	dst := New(25)
	MatVecInto(dst, view, q)
	for r := 0; r < 25; r++ {
		if want := dotGeneric(a.Row(5+r).Data(), q.Data()); !sameBits(dst.Data()[r], want) {
			t.Fatalf("row %d: %g, want %g", r, dst.Data()[r], want)
		}
	}
}

// FuzzDotMatchesGeneric reads the input as raw float32 bit patterns — so
// the fuzzer reaches NaN payloads, denormals and infinities directly — and
// splits it into a query of d values and as many full rows as remain.
func FuzzDotMatchesGeneric(f *testing.F) {
	seed := func(d uint8, vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(d, uint8(len(vals)%4), b)
	}
	seed(0)
	seed(1, 2, 3)
	seed(3, 1, 2, 3, 4, 5, 6)
	seed(4, 1, -1, inf, -inf, 0, 1, 0, 1)
	seed(5, nan, 1, 2, 3, 4, 1, 1, 1, 1, 1)
	seed(7, 1e-40, math.MaxFloat32, -math.MaxFloat32, 3, 4, 5, 6, 2, 2, 2, 2, 2, 2, 2, 7, 7, 7, 7, 7, 7, 7)
	// Four rows and more: one block of four, then blocks and single rows,
	// with a special value in a different lane of each block.
	seed(1, 3, 1, 2, inf, 4)
	seed(2, 1, -1, nan, 1, 2, 2, -inf, 3, 4, 4, 5, 5)
	seed(3, 1, 2, 3, 1, 1, 1, 2, 2, 2, inf, -inf, 3, 4, 4, 4, 5, 5, 5, 1e-40, 6, 6, 6, 6, 6)
	seed(5, 1, -1, 2, -2, 3, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, nan, 3, 3, 4, 4, 4, 4, math.MaxFloat32,
		5, 5, 5, 5, 5, -0.0, 6, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8, 8, -math.MaxFloat32)
	eighteen := make([]float32, 18*10)
	for i := range eighteen {
		eighteen[i] = float32(i%7) - 3
	}
	eighteen[18+17], eighteen[3*18+16], eighteen[6*18+2] = nan, inf, -inf
	seed(18, eighteen...)
	f.Fuzz(func(t *testing.T, d, off uint8, raw []byte) {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		dim := int(d)
		if dim > len(vals) {
			dim = len(vals)
		}
		rows := 0
		if dim > 0 {
			rows = (len(vals) - dim) / dim
		}
		checkDotRows(t, vals[dim:dim+rows*dim], vals[:dim], rows, dim, int(off%4))
	})
}

func benchDotRows(b *testing.B, rows, d int) {
	rng := rand.New(rand.NewSource(1))
	a, q, dst := randTensor(rng, rows, d), randTensor(rng, d), New(rows)
	b.SetBytes(int64(rows * d * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(dst, a, q)
	}
}

// A 64 KB block (L1/L2-resident) at the two benchmark dimensions: the
// compute ceiling of the kernel, to set against the DRAM stream rate.
func BenchmarkDotRows512x32(b *testing.B) { benchDotRows(b, 512, 32) }
func BenchmarkDotRows910x18(b *testing.B) { benchDotRows(b, 910, 18) }

// encoder_long's scan (128 KB) and batch_100k's whole catalog (7.2 MB,
// beyond L2, warm in the last-level cache).
func BenchmarkDotRows256x128(b *testing.B)   { benchDotRows(b, 256, 128) }
func BenchmarkDotRows100000x18(b *testing.B) { benchDotRows(b, 100000, 18) }
