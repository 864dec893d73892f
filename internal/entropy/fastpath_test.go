package entropy

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/stats"
)

// bruteSample is an independent reference implementation of the
// Richman–Moorman pairwise counts, kept verbatim from the pre-fast-path
// code so the sorted early-abort path is checked against the original
// O(n²) scan, not against itself.
func bruteSample(xs []float64, m int, r float64) float64 {
	n := len(xs)
	if n < m+2 {
		return 0
	}
	var a, b int
	nTempl := n - m
	for i := 0; i < nTempl-1; i++ {
		for j := i + 1; j < nTempl; j++ {
			match := true
			for k := 0; k < m; k++ {
				if math.Abs(xs[i+k]-xs[j+k]) > r {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			b++
			if i+m < n && j+m < n && math.Abs(xs[i+m]-xs[j+m]) <= r {
				a++
			}
		}
	}
	if a == 0 || b == 0 {
		return 0
	}
	return -math.Log(float64(a) / float64(b))
}

// TestSampleSortedFastPathEquivalence drives the fast path across
// signal shapes and tolerances and demands bit-identical results: the
// sorted enumeration only prunes pairs that cannot match, so the
// integer counts — and hence the entropy — must be exactly equal.
func TestSampleSortedFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	signals := map[string][]float64{}

	gauss := make([]float64, 400)
	for i := range gauss {
		gauss[i] = rng.NormFloat64()
	}
	signals["gauss"] = gauss

	walk := make([]float64, 300)
	for i := 1; i < len(walk); i++ {
		walk[i] = walk[i-1] + rng.NormFloat64()
	}
	signals["randomwalk"] = walk

	sine := make([]float64, 256)
	for i := range sine {
		sine[i] = math.Sin(float64(i) / 7)
	}
	signals["sine"] = sine

	constant := make([]float64, 64) // every pair matches: worst case
	signals["constant"] = constant

	quantized := make([]float64, 200) // heavy ties
	for i := range quantized {
		quantized[i] = float64(rng.Intn(4))
	}
	signals["quantized"] = quantized

	signals["tiny"] = []float64{1, 2, 3, 4}

	for name, xs := range signals {
		for _, m := range []int{1, 2, 3} {
			for _, k := range []float64{0, 0.1, 0.2, 0.35, 1.5} {
				r := k * stats.StdDev(xs)
				var ws Workspace
				got, err := ws.Sample(xs, m, r)
				if err != nil {
					t.Fatalf("%s m=%d k=%g: %v", name, m, k, err)
				}
				if want := bruteSample(xs, m, r); got != want {
					t.Fatalf("%s m=%d k=%g: fast path %v, brute force %v", name, m, k, got, want)
				}
			}
		}
	}
}

// TestSampleNaNFallback pins the NaN escape hatch: NaN amplitudes defeat
// sort-based pruning, so those inputs take the pairwise scan and must
// still agree with the reference.
func TestSampleNaNFallback(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 2, 1, 2, 1, 2, 1}
	var ws Workspace
	got, err := ws.Sample(xs, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSample(xs, 2, 0.5); got != want {
		t.Fatalf("NaN input: got %v, want %v", got, want)
	}
}

// TestWorkspaceMatchesPackageFunctions reuses one workspace across many
// different inputs and checks every estimator against a fresh
// workspace, the one-off form of each call — scratch reuse must never
// leak state between calls.
func TestWorkspaceMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws Workspace
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * float64(1+trial%5)
		}
		for _, order := range []int{3, 5, 7} {
			want, err1 := new(Workspace).Permutation(xs, order)
			got, err2 := ws.Permutation(xs, order)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if got != want {
				t.Fatalf("trial %d: workspace Permutation(n=%d) %v != %v", trial, order, got, want)
			}
		}
		want, err1 := new(Workspace).RenyiSignal(xs, 2, 16)
		got, err2 := ws.RenyiSignal(xs, 2, 16)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got != want {
			t.Fatalf("trial %d: workspace RenyiSignal %v != %v", trial, got, want)
		}
		want, err1 = new(Workspace).ShannonSignal(xs, 16)
		got, err2 = ws.ShannonSignal(xs, 16)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got != want {
			t.Fatalf("trial %d: workspace ShannonSignal %v != %v", trial, got, want)
		}
		want, err1 = new(Workspace).SampleK(xs, 2, 0.2)
		got, err2 = ws.SampleK(xs, 2, 0.2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got != want {
			t.Fatalf("trial %d: workspace SampleK %v != %v", trial, got, want)
		}
	}
}

// BenchmarkSample contrasts the sorted early-abort path with the
// pairwise reference on a DWT-subband-sized Gaussian signal.
func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	r := 0.2 * stats.StdDev(xs)
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sampleCountsBrute(xs, 2, r)
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		var ws Workspace
		for i := 0; i < b.N; i++ {
			if _, err := ws.Sample(xs, 2, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
