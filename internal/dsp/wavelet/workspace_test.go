package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDecomposeIntoMatchesDecompose reuses one workspace and
// decomposition across signals of several lengths and wavelets,
// demanding bit-identical coefficients versus the allocating path —
// signed zeros included: the 64-sample signals are mostly ±0.
func TestDecomposeIntoMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []Wavelet{Haar, DB4, Sym4} {
		ws := w.NewWorkspace()
		var d Decomposition
		for _, n := range []int{64, 512, 1024, 512, 64} { // shrink back: buffers must resize down
			level := MaxLevel(n)
			if level > 7 {
				level = 7
			}
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
				if n == 64 && i%16 != 0 {
					// Mostly ±0: the sums of signed zeros whose sign
					// depends on the accumulator's +0 seed.
					xs[i] = math.Copysign(0, xs[i])
				}
			}
			want, err := w.Decompose(xs, level)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.DecomposeInto(&d, xs, level); err != nil {
				t.Fatal(err)
			}
			if len(d.Details) != len(want.Details) {
				t.Fatalf("%s n=%d: %d levels vs %d", w.Name(), n, len(d.Details), len(want.Details))
			}
			for l := 1; l <= level; l++ {
				sameBits(t, fmt.Sprintf("%s n=%d L%d", w.Name(), n, l), d.Detail(l), want.Detail(l))
			}
			sameBits(t, fmt.Sprintf("%s n=%d approx", w.Name(), n), d.Approx, want.Approx)
		}
	}
}

// sameBits fails unless got and want hold the same float64 bit
// patterns: == would let -0 pass for +0.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d coeffs vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestExtendIntoMatchesFullDecompose pins the pause-and-extend path the
// feature extractor uses to capture the level-3 approximation: stopping
// at an intermediate level and extending must be bit-identical to one
// full decomposition.
func TestExtendIntoMatchesFullDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	want, err := DB4.Decompose(xs, 7)
	if err != nil {
		t.Fatal(err)
	}
	ws := DB4.NewWorkspace()
	var d Decomposition
	if err := ws.DecomposeInto(&d, xs, 3); err != nil {
		t.Fatal(err)
	}
	approx3 := append([]float64(nil), d.Approx...)
	if err := ws.ExtendInto(&d, 7); err != nil {
		t.Fatal(err)
	}
	if err := ws.ExtendInto(&d, 7); err != nil { // no-op at target depth
		t.Fatal(err)
	}
	for l := 1; l <= 7; l++ {
		got, ref := d.Detail(l), want.Detail(l)
		if len(got) != len(ref) {
			t.Fatalf("L%d: %d coeffs vs %d", l, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("L%d[%d]: %g vs %g", l, i, got[i], ref[i])
			}
		}
	}
	for i := range want.Approx {
		if d.Approx[i] != want.Approx[i] {
			t.Fatalf("approx[%d]: %g vs %g", i, d.Approx[i], want.Approx[i])
		}
	}
	// The captured intermediate approximation must equal a direct
	// 3-level decomposition's.
	ref3, err := DB4.Decompose(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref3.Approx {
		if approx3[i] != ref3.Approx[i] {
			t.Fatalf("captured approx3[%d]: %g vs %g", i, approx3[i], ref3.Approx[i])
		}
	}
	if err := ws.ExtendInto(&d, 20); err == nil {
		t.Fatal("ExtendInto accepted an unreachable level")
	}
}

// TestWorkspacePadPow2 checks the padding buffer against edge
// replication up to the next power of two, including the no-op
// power-of-two case.
func TestWorkspacePadPow2(t *testing.T) {
	ws := DB4.NewWorkspace()
	for _, n := range []int{1, 5, 8, 100, 1000, 1024} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		want := append([]float64(nil), xs...)
		for len(want)&(len(want)-1) != 0 {
			want = append(want, xs[n-1])
		}
		got := ws.PadPow2(xs)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d vs %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d [%d]: %g vs %g", n, i, got[i], want[i])
			}
		}
		if len(xs) == len(want) && &got[0] != &xs[0] {
			t.Fatalf("n=%d: power-of-two input was copied", n)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DB4.Decompose(xs, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws := DB4.NewWorkspace()
		var d Decomposition
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ws.DecomposeInto(&d, xs, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}
