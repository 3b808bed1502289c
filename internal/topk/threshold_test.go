package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkFirstAbove compares the kernel with firstAboveGeneric from every
// start index, the end of the slice included.
func checkFirstAbove(t *testing.T, s []float32, root float32) {
	t.Helper()
	for i := 0; i <= len(s); i++ {
		if got, want := firstAbove(s, i, root), firstAboveGeneric(s, i, root); got != want {
			t.Fatalf("len %d from %d, root %g (%08x): kernel %d, Go loop %d; scores %v",
				len(s), i, root, math.Float32bits(root), got, want, s)
		}
	}
}

// The kernel tests four scores at once and the last len(s) mod 4 one at a
// time. Lengths 0…67 from every start index and every slice alignment put
// the first score above root in every lane and in the tail; what must never
// fire is drawn from NaN, root itself, the other zero when root is a zero,
// and the values just below it.
func TestFirstAboveMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	roots := []float32{0, negZero, 1, -1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		-inf, inf, math.MaxFloat32, -math.MaxFloat32, nan}
	for _, root := range roots {
		below := []float32{nan, root, -inf, math.Nextafter32(root, float32(math.Inf(-1)))}
		if root == 0 {
			below = append(below, 0, negZero)
		}
		above := []float32{math.Nextafter32(root, inf), inf, math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-40, 3}
		draw := func(pAbove float64) float32 {
			if rng.Float64() < pAbove {
				return above[rng.Intn(len(above))]
			}
			return below[rng.Intn(len(below))]
		}
		for n := 0; n <= 67; n++ {
			for off := 0; off <= 3; off++ {
				buf := make([]float32, off+n)
				s := buf[off:]
				for _, pAbove := range []float64{0, 0.05, 0.3} {
					for i := range s {
						s[i] = draw(pAbove)
					}
					checkFirstAbove(t, s, root)
				}
			}
			// Exactly one candidate, at each position in turn.
			s := make([]float32, n)
			for p := 0; p < n; p++ {
				for i := range s {
					s[i] = draw(0)
				}
				s[p] = above[p%len(above)]
				checkFirstAbove(t, s, root)
			}
		}
	}
}

// FuzzFirstAbove reads root and the scores as raw float32 bits, so the
// fuzzer reaches every NaN payload, denormal and signed zero directly.
func FuzzFirstAbove(f *testing.F) {
	seed := func(root float32, from uint8, vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		f.Add(math.Float32bits(root), from, b)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	seed(0, 0)
	seed(0, 0, float32(math.Copysign(0, -1)), 0, nan, 1e-45)
	seed(1, 2, 1, 1, 1, 1, nan, 1, 2, 0)
	seed(-inf, 0, nan, nan, nan, nan, nan, -inf)
	seed(3, 1, 1, 2, 3, inf, 3, 3, 3, 3, 3, 4)
	f.Fuzz(func(t *testing.T, rootBits uint32, from uint8, raw []byte) {
		s := make([]float32, len(raw)/4)
		for i := range s {
			s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		root, i := math.Float32frombits(rootBits), min(int(from), len(s))
		if got, want := firstAbove(s, i, root), firstAboveGeneric(s, i, root); got != want {
			t.Fatalf("from %d, root %08x: kernel %d, Go loop %d; scores %v", i, rootBits, got, want, s)
		}
	})
}

// Runs the threshold never lets through — every score equal, so each one
// ties the root and loses it on id — and NaN runs ahead of the numbers,
// which keep the heap on its slow path until the root is a number: the
// heap and the full sort agree on both.
func TestSelectEqualAndNaNPrefixedRuns(t *testing.T) {
	nan := float32(math.NaN())
	for _, n := range []int{1, 3, 4, 5, 8, 67, 1000} {
		for _, k := range []int{1, 2, 4, 21, n, n + 1} {
			equal := make([]float32, n)
			for i := range equal {
				equal[i] = 0.5
			}
			prefixed := make([]float32, n)
			for i := range prefixed {
				prefixed[i] = nan
				if i >= n/2 {
					prefixed[i] = float32(i % 7)
				}
			}
			for name, scores := range map[string][]float32{"equal": equal, "nan-prefixed": prefixed} {
				heap, sorted := SelectFromScores(scores, k), SelectFromScoresSorted(scores, k)
				if len(heap) != len(sorted) {
					t.Fatalf("%s n=%d k=%d: heap %d results, sort %d", name, n, k, len(heap), len(sorted))
				}
				for i := range heap {
					if heap[i].Item != sorted[i].Item || !sameScore(heap[i].Score, sorted[i].Score) {
						t.Fatalf("%s n=%d k=%d: result[%d] heap %+v, sort %+v", name, n, k, i, heap[i], sorted[i])
					}
				}
			}
		}
	}
}
