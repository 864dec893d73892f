package spectrum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"selflearn/internal/dsp/window"
)

// TestPeriodogramIntoMatchesPeriodogram reuses one workspace across
// many windows and demands bit-identical PSDs versus the one-shot
// estimator.
func TestPeriodogramIntoMatchesPeriodogram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, fs = 512, 128.0
	ws, err := NewWorkspace(n, fs, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	var dst PSD
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want, err := Periodogram(xs, fs, window.Hann)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.PeriodogramInto(&dst, xs); err != nil {
			t.Fatal(err)
		}
		if dst.BinWidth != want.BinWidth {
			t.Fatalf("trial %d: BinWidth %g vs %g", trial, dst.BinWidth, want.BinWidth)
		}
		if len(dst.Power) != len(want.Power) {
			t.Fatalf("trial %d: %d bins vs %d", trial, len(dst.Power), len(want.Power))
		}
		for k := range want.Power {
			if dst.Power[k] != want.Power[k] {
				t.Fatalf("trial %d bin %d: %g vs %g", trial, k, dst.Power[k], want.Power[k])
			}
		}
		if dst.TotalPower() != want.TotalPower() {
			t.Fatalf("trial %d: TotalPower %g vs %g", trial, dst.TotalPower(), want.TotalPower())
		}
	}
	if err := ws.PeriodogramInto(&dst, make([]float64, n/2)); err == nil {
		t.Fatal("workspace accepted a wrong-length signal")
	}
}

// TestTotalPowerMemoConsistency checks the construction-time memo
// against a by-hand integral and pins the two mutation paths: Welch
// invalidates after averaging, and Invalidate forces a recompute.
func TestTotalPowerMemoConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	p, err := Periodogram(xs, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	manual := 0.0
	for _, v := range p.Power {
		manual += v
	}
	manual *= p.BinWidth
	if got := p.TotalPower(); got != manual {
		t.Fatalf("memoized TotalPower %g != recomputed %g", got, manual)
	}
	if got := p.RelativeBandPower(Theta); got != p.BandPower(Theta)/manual {
		t.Fatalf("RelativeBandPower uses a stale total: %g", got)
	}

	w, err := Welch(xs, 256, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	manual = 0.0
	for _, v := range w.Power {
		manual += v
	}
	manual *= w.BinWidth
	if got := w.TotalPower(); got != manual {
		t.Fatalf("Welch TotalPower %g != recomputed %g (stale memo survived averaging?)", got, manual)
	}

	// Hand mutation + Invalidate must recompute.
	before := p.TotalPower()
	p.Power[3] *= 10
	p.Invalidate()
	if p.TotalPower() == before {
		t.Fatal("Invalidate did not drop the memoized total")
	}
}

// FuzzPeriodogramPairMatchesSingle checks the paired fold against two
// PeriodogramInto calls: every bin and TotalPower, bit for bit (NaN
// matching NaN), at lengths from the single-bin nfft = 1 up, padded or
// not, over signals with signed zeros, infinities and subnormals.
func FuzzPeriodogramPairMatchesSingle(f *testing.F) {
	// Short seeds: samples cycle through data, so n does not need a long
	// one, and a 2,048-byte seed stalled one 20 s run of the engine.
	rng := rand.New(rand.NewSource(4))
	noise := make([]byte, 512)
	rng.Read(noise)
	f.Add(noise, uint16(1024))
	f.Add(noise, uint16(800))
	f.Add(noise[:300], uint16(512))
	f.Add(noise, uint16(1))
	f.Add(noise, uint16(2))
	f.Add([]byte{0, 1, 2, 3, 9}, uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, nb uint16) {
		n := 1 + int(nb)%2048
		if len(data) == 0 {
			data = []byte{128}
		}
		x0, x1 := make([]float64, n), make([]float64, n)
		for i := range x0 {
			x0[i] = pairFuzzValue(data[i%len(data)], i)
			x1[i] = pairFuzzValue(data[(i+n)%len(data)], i+n)
		}
		ws, err := NewWorkspace(n, 256, window.Hann)
		if err != nil {
			t.Fatal(err)
		}
		var p0, p1, s0, s1 PSD
		if err := ws.PeriodogramPairInto(&p0, &p1, x0, x1); err != nil {
			t.Fatal(err)
		}
		if err := ws.PeriodogramInto(&s0, x0); err != nil {
			t.Fatal(err)
		}
		if err := ws.PeriodogramInto(&s1, x1); err != nil {
			t.Fatal(err)
		}
		for c, pair := range [2][2]*PSD{{&p0, &s0}, {&p1, &s1}} {
			got, want := pair[0], pair[1]
			if got.BinWidth != want.BinWidth || len(got.Power) != len(want.Power) {
				t.Fatalf("n=%d channel %d: %d bins of %g Hz, single %d of %g Hz", n, c, len(got.Power), got.BinWidth, len(want.Power), want.BinWidth)
			}
			for k := range want.Power {
				if !sameFloat(got.Power[k], want.Power[k]) {
					t.Fatalf("n=%d channel %d bin %d: pair %v, single %v", n, c, k, got.Power[k], want.Power[k])
				}
			}
			if !sameFloat(got.TotalPower(), want.TotalPower()) {
				t.Fatalf("n=%d channel %d: TotalPower pair %v, single %v", n, c, got.TotalPower(), want.TotalPower())
			}
		}
	})
}

// pairFuzzValue decodes sample i from byte b: bytes below 16 are edge
// values, the rest spread in magnitude with i.
func pairFuzzValue(b byte, i int) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return 5e-324
	case 5:
		return 1e300
	case 6:
		return -1e-300
	}
	return float64(int(b)-128) * float64(1+i%13) / 16
}

// sameFloat reports bit equality, with any NaN equal to any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func BenchmarkPeriodogram(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Periodogram(xs, 256, window.Hann); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws, err := NewWorkspace(len(xs), 256, window.Hann)
		if err != nil {
			b.Fatal(err)
		}
		var dst PSD
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ws.PeriodogramInto(&dst, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pair", func(b *testing.B) {
		ws, err := NewWorkspace(len(xs), 256, window.Hann)
		if err != nil {
			b.Fatal(err)
		}
		x1 := append([]float64(nil), xs...)
		slices.Reverse(x1)
		var d0, d1 PSD
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ws.PeriodogramPairInto(&d0, &d1, xs, x1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
