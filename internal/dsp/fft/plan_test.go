package fft

import (
	"math"
	"math/rand"
	"testing"
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

func TestRealPlanPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 128, 512, 1024} {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("NewRealPlan(%d): %v", n, err)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		full := make([]complex128, n)
		for i, v := range xs {
			full[i] = complex(v, 0)
		}
		if err := Forward(full); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n/2+1)
		got, err := rp.PowerSpectrumInto(dst, xs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n/2+1 {
			t.Fatalf("n=%d: got %d bins", n, len(got))
		}
		for k := 0; k <= n/2; k++ {
			want := real(full[k])*real(full[k]) + imag(full[k])*imag(full[k])
			if d := math.Abs(got[k] - want); d > 1e-8*(1+want)*float64(n) {
				t.Fatalf("n=%d bin %d: got %g want %g", n, k, got[k], want)
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
	if _, err := rp.PowerSpectrumInto(make([]float64, 5), make([]float64, 4)); err == nil {
		t.Fatal("PowerSpectrumInto with wrong length should fail")
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

func BenchmarkRealPlanPower1024(b *testing.B) {
	rp, _ := NewRealPlan(1024)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i % 17)
	}
	dst := make([]float64, 1024/2+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rp.PowerSpectrumInto(dst, xs)
	}
}
