package fft

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/window"
	"selflearn/internal/simd"
)

func TestPlanMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), x...)
		if err := Forward(want); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Forward(got); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if d := cAbs(got[k] - want[k]); d > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: plan %v vs Forward %v (|Δ|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

func TestPlanRejectsBadLength(t *testing.T) {
	if _, err := NewPlan(12); err == nil {
		t.Fatal("NewPlan(12) should fail")
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(make([]complex128, 4)); err == nil {
		t.Fatal("Forward with wrong length should fail")
	}
}

// TestRealPlanPowerSpectrum checks the power spectrum against the full
// complex transform of the tapered, zero-padded signal, for inputs of
// the planned length and shorter ones.
func TestRealPlanPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 128, 512, 1024} {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("NewRealPlan(%d): %v", n, err)
		}
		for _, l := range []int{n, n - n/4 - 1} {
			if l < 1 {
				continue
			}
			xs := make([]float64, l)
			taper := make([]float64, l)
			full := make([]complex128, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
				taper[i] = rng.Float64()
				full[i] = complex(xs[i]*taper[i], 0)
			}
			if err := Forward(full); err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, n/2+1)
			got, err := rp.PowerSpectrumInto(dst, xs, taper)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n/2+1 {
				t.Fatalf("n=%d: got %d bins", n, len(got))
			}
			for k := 0; k <= n/2; k++ {
				want := real(full[k])*real(full[k]) + imag(full[k])*imag(full[k])
				if d := math.Abs(got[k] - want); d > 1e-8*(1+want)*float64(n) {
					t.Fatalf("n=%d len %d bin %d: got %g want %g", n, l, k, got[k], want)
				}
			}
		}
	}
}

func TestRealPlanRejectsBadLength(t *testing.T) {
	if _, err := NewRealPlan(6); err == nil {
		t.Fatal("NewRealPlan(6) should fail")
	}
	if _, err := NewRealPlan(1); err == nil {
		t.Fatal("NewRealPlan(1) should fail")
	}
	rp, err := NewRealPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 5)
	for _, c := range []struct{ xs, taper int }{{0, 0}, {9, 9}, {8, 7}, {4, 8}} {
		if _, err := rp.PowerSpectrumInto(dst, make([]float64, c.xs), make([]float64, c.taper)); err == nil {
			t.Fatalf("PowerSpectrumInto took %d samples and %d taper weights", c.xs, c.taper)
		}
	}
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func BenchmarkPlanForward1024(b *testing.B) {
	p, _ := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Forward(x)
	}
}

// benchInput is the benchmarks' signal of n samples and its Hann taper.
func benchInput(n int) (xs, taper []float64) {
	xs = make([]float64, n)
	for i := range xs {
		xs[i] = float64(i % 17)
	}
	return xs, window.Coefficients(window.Hann, n)
}

// BenchmarkRealPlanPower1024 times one Hann-tapered 1,024-point power
// spectrum on each path.
func BenchmarkRealPlanPower1024(b *testing.B) {
	const n = 1024
	rp, _ := NewRealPlan(n)
	xs, taper := benchInput(n)
	dst := make([]float64, n/2+1)
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp.powerGo(dst, xs, taper)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !simd.AVX2 {
			b.Skip("the CPU has no AVX2")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp.powerAVX2(dst, xs, taper)
		}
	})
}
