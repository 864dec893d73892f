package fft

import (
	"math"
	"math/rand"
	"testing"
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
// requires the same bits in every bin. mix sets how often a value is
// a signed zero (its low four bits, in sixteenths) and an infinity
// (bits 4–5, in 256ths); the rest are repeats, small integers and
// Gaussians. NaNs (an infinity minus an infinity) count as equal to
// each other whatever their payload: a NaN's payload follows operand
// order, which the compiler may pick differently in the two loops,
// and it carries no value.
func FuzzButterfliesMatchRadix2(f *testing.F) {
	for logn := uint8(0); logn < 12; logn++ {
		f.Add(int64(logn), logn, uint8(0))
	}
	f.Add(int64(97), uint8(5), uint8(0x0e)) // mostly ±0
	f.Add(int64(98), uint8(8), uint8(0x0c))
	f.Add(int64(99), uint8(9), uint8(0x14)) // rare infinities
	f.Fuzz(func(t *testing.T, seed int64, logn, mix uint8) {
		n := 2 << (logn % 12)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		zeros, infs := int(mix&0x0f)*16, int(mix>>4&3)
		prev := 0.0
		value := func() float64 {
			switch r := rng.Intn(256); {
			case r < zeros:
				prev = math.Copysign(0, rng.NormFloat64())
			case r < zeros+infs:
				prev = math.Inf(1 - 2*rng.Intn(2))
			case r < zeros+infs+16:
				// a repeat
			case r < zeros+infs+48:
				prev = float64(rng.Intn(5) - 2)
			default:
				prev = rng.NormFloat64()
			}
			return prev
		}
		got := make([]complex128, n)
		for i := range got {
			got[i] = complex(value(), value())
		}
		want := append([]complex128(nil), got...)
		p.butterflies(got)
		butterfliesRadix2(p, want)
		for k := range want {
			if !sameFloat(real(got[k]), real(want[k])) || !sameFloat(imag(got[k]), imag(want[k])) {
				t.Fatalf("n=%d bin %d: fused %v, radix-2 %v", n, k, got[k], want[k])
			}
		}
	})
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}
