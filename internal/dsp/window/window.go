// Package window provides the taper functions applied before spectral
// estimation (periodogram / Welch) in the feature-extraction front end.
package window

import (
	"math"
	"sync"
)

// Func identifies a window (taper) function.
type Func int

// Supported window functions.
const (
	Rectangular Func = iota
	Hann
	Hamming
	Blackman
)

// String returns the conventional name of the window function.
func (f Func) String() string {
	switch f {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients for f. It returns nil
// when n <= 0. For n == 1 all windows degenerate to [1].
func Coefficients(f Func, n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	den := float64(n - 1)
	for i := range w {
		x := float64(i) / den
		switch f {
		case Hann:
			w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*x)
		case Hamming:
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*x)
		case Blackman:
			w[i] = 0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x)
		default:
			w[i] = 1
		}
	}
	return w
}

// cached holds one memoized coefficient table and its mean squared
// coefficient. The feature extractor evaluates the same taper at the
// same window length for every analysis window, so the cosine table is
// computed once per (function, length) for the life of the process.
type cached struct {
	coeffs []float64
	power  float64
}

var coeffCache sync.Map // cacheKey -> *cached

type cacheKey struct {
	f Func
	n int
}

func lookup(f Func, n int) *cached {
	key := cacheKey{f, n}
	if c, ok := coeffCache.Load(key); ok {
		return c.(*cached)
	}
	w := Coefficients(f, n)
	c := &cached{coeffs: w}
	if w != nil {
		var s float64
		for _, v := range w {
			s += v * v
		}
		c.power = s / float64(n)
	}
	actual, _ := coeffCache.LoadOrStore(key, c)
	return actual.(*cached)
}

// Cached returns the memoized coefficient table for window f at length
// n. The slice is shared across callers and must not be modified; use
// Coefficients for a private copy.
func Cached(f Func, n int) []float64 {
	return lookup(f, n).coeffs
}

// Power returns the mean squared coefficient of window f at length n,
// used to correct PSD estimates for the power lost to tapering.
func Power(f Func, n int) float64 {
	return lookup(f, n).power
}
