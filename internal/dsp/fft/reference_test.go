package fft

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/window"
	"selflearn/internal/simd"
)

// butterfliesRadix2 is the stage loop Plan.butterflies runs in fused
// pairs, one pass per stage: the reference FuzzButterfliesMatchRadix2
// holds the fused loop to, bit for bit.
func butterfliesRadix2(p *Plan, x []complex128) {
	n := p.n
	if n >= 4 {
		for s := 0; s+4 <= n; s += 4 {
			q := x[s : s+4 : s+4]
			a, b, c, d := q[0], q[1], q[2], q[3]
			s0, d0 := a+b, a-b
			s1, d1 := c+d, c-d
			t1 := complex(imag(d1), -real(d1))
			q[0] = s0 + s1
			q[2] = s0 - s1
			q[1] = d0 + t1
			q[3] = d0 - t1
		}
	} else if n == 2 {
		a, b := x[0], x[1]
		x[0], x[1] = a+b, a-b
	}
	tw := p.tw
	off := 3
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[off : off+half]
		for start := 0; start < n; start += size {
			a := x[start : start+half : start+half]
			b := x[start+half : start+size : start+size]
			t := b[0]
			u := a[0]
			a[0] = u + t
			b[0] = u - t
			for k := 1; k < half; k++ {
				t := b[k] * stage[k]
				u := a[k]
				a[k] = u + t
				b[k] = u - t
			}
		}
		off += half
	}
}

// FuzzButterfliesMatchRadix2 runs the fused butterflies and the
// one-stage-per-pass reference over the same input, n = 2…4096, and
// requires the same bits in every bin; on a CPU with AVX2 the AVX2
// butterflies (n ≥ 4) must match the reference too. The values come
// from fuzzValues. NaNs (an infinity minus an infinity) count as equal
// to each other whatever their payload: a NaN's payload follows operand
// order, which the compiler may pick differently in the two loops, and
// it carries no value.
func FuzzButterfliesMatchRadix2(f *testing.F) {
	for logn := uint8(0); logn < 12; logn++ {
		f.Add(int64(logn), logn, uint8(0))
	}
	f.Add(int64(97), uint8(5), uint8(0x0e)) // mostly ±0
	f.Add(int64(98), uint8(8), uint8(0x0c))
	f.Add(int64(99), uint8(9), uint8(0x14)) // rare infinities
	f.Add(int64(96), uint8(3), uint8(0xc6)) // subnormals
	f.Fuzz(func(t *testing.T, seed int64, logn, mix uint8) {
		n := 2 << (logn % 12)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		value := fuzzValues(rand.New(rand.NewSource(seed)), mix)
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(value(), value())
		}
		got := append([]complex128(nil), want...)
		kernel := append([]complex128(nil), want...)
		butterfliesRadix2(p, want)
		p.butterflies(got)
		sameBins(t, "fused", got, want)
		if simd.AVX2 && n >= 4 {
			p.butterfliesAVX2(kernel)
			sameBins(t, "AVX2", kernel, want)
		}
	})
}

// FuzzPowerSpectrumMatchesGo runs the AVX2 power spectrum and the Go
// path over the same input, n = 16…4096, and requires the same bits in
// every bin, NaNs equal as in FuzzButterfliesMatchRadix2. short trims
// the input below n, so that the pack zero-pads it, as the 200 Hz and
// 384 Hz windows need; hann tapers with the Hann table, and otherwise
// the taper's weights come from the same mix as the samples.
func FuzzPowerSpectrumMatchesGo(f *testing.F) {
	if !simd.AVX2 {
		f.Skip("the CPU has no AVX2: the Go path is the only path")
	}
	for logn := uint8(0); logn < 9; logn++ {
		f.Add(int64(logn), logn, uint16(0), uint8(0), true)
		f.Add(int64(logn)+50, logn, uint16(logn)*37+1, uint8(0x4e), false)
	}
	f.Add(int64(200), uint8(6), uint16(224), uint8(0), true)  // 800 of 1,024: 200 Hz
	f.Add(int64(384), uint8(7), uint16(512), uint8(0), true)  // 1,536 of 2,048: 384 Hz
	f.Add(int64(97), uint8(2), uint16(0), uint8(0x0e), false) // mostly ±0
	f.Add(int64(99), uint8(4), uint16(3), uint8(0x24), true)  // rare infinities
	f.Add(int64(96), uint8(3), uint16(0), uint8(0xc6), false) // subnormals
	f.Fuzz(func(t *testing.T, seed int64, logn uint8, short uint16, mix uint8, hann bool) {
		n := 16 << (logn % 9)
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		value := fuzzValues(rand.New(rand.NewSource(seed)), mix)
		xs := make([]float64, n-int(short)%n)
		for i := range xs {
			xs[i] = value()
		}
		taper := window.Coefficients(window.Hann, len(xs))
		if !hann {
			for i := range taper {
				taper[i] = value()
			}
		}
		want := make([]float64, n/2+1)
		got := make([]float64, n/2+1)
		rp.powerGo(want, xs, taper)
		rp.powerAVX2(got, xs, taper)
		for k := range want {
			if !sameFloat(got[k], want[k]) {
				t.Fatalf("n=%d, %d samples, bin %d: AVX2 %v, Go %v", n, len(xs), k, got[k], want[k])
			}
		}
	})
}

// fuzzValues returns the fuzz targets' value source. mix sets how often
// a value is a signed zero (its low four bits, in sixteenths), an
// infinity (bits 4–5, in 256ths) and a subnormal (bits 6–7, in 64ths);
// the rest are repeats, small integers and Gaussians scaled by 1e−10 to
// 1e9.
func fuzzValues(rng *rand.Rand, mix uint8) func() float64 {
	zeros, infs, subs := int(mix&0x0f)*16, int(mix>>4&3), int(mix>>6)*4
	prev := 0.0
	return func() float64 {
		switch r := rng.Intn(256); {
		case r < zeros:
			prev = math.Copysign(0, rng.NormFloat64())
		case r < zeros+infs:
			prev = math.Inf(1 - 2*rng.Intn(2))
		case r < zeros+infs+subs:
			prev = math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1<<20)), rng.NormFloat64())
		case r < zeros+infs+subs+16:
			// a repeat
		case r < zeros+infs+subs+48:
			prev = float64(rng.Intn(5) - 2)
		default:
			prev = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		return prev
	}
}

// sameBins fails t at the first bin where got and want differ.
func sameBins(t *testing.T, path string, got, want []complex128) {
	t.Helper()
	for k := range want {
		if !sameFloat(real(got[k]), real(want[k])) || !sameFloat(imag(got[k]), imag(want[k])) {
			t.Fatalf("n=%d bin %d: %s %v, radix-2 %v", len(want), k, path, got[k], want[k])
		}
	}
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}
