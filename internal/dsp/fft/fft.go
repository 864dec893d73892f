// Package fft implements an iterative radix-2 fast Fourier transform used
// by the spectral feature extractors. Only power-of-two lengths are
// supported; callers zero-pad (see NextPow2) when needed.
package fft

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPow2 is returned when the input length is not a power of two.
var ErrNotPow2 = errors.New("fft: length must be a power of two")

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the in-place forward DFT of x:
//
//	X[k] = Σ_n x[n]·exp(-2πi·kn/N)
//
// The length of x must be a power of two.
//
//selflearn:hotpath
func Forward(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return ErrNotPow2
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		wStep := cmplx.Rect(1, -2*math.Pi/float64(size))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return nil
}
