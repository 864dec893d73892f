// Package stats provides the descriptive statistics used throughout the
// self-learning seizure-detection pipeline: moments, quantiles, z-score
// normalization and the Fleming–Wallace geometric mean used by the paper to
// average normalized metrics.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the normalization step of Algorithm 1). It returns NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
//
//selflearn:hotpath
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// RMS returns the root mean square of xs. It returns NaN for empty input.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var ss float64
	for _, x := range xs {
		ss += x * x
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Skewness returns the population skewness (third standardized moment).
// It returns 0 when the variance is 0 and NaN for empty input.
func Skewness(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(len(xs))
}

// Kurtosis returns the population excess kurtosis (fourth standardized
// moment minus 3). It returns 0 when the variance is 0 and NaN for empty
// input.
func Kurtosis(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d * d
	}
	return s/float64(len(xs)) - 3
}

// Min returns the minimum of xs. It returns NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It returns NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the first maximum of xs, or -1 for empty
// input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Median returns the median of xs without modifying it. It returns NaN for
// empty input.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. The input is not modified.
// It returns NaN for empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// GeometricMean returns the geometric mean of xs. Following Fleming and
// Wallace ("How not to lie with statistics"), it is the only correct way to
// average normalized values, and is what the paper uses for δ_norm and for
// the sensitivity/specificity trade-off. All inputs must be positive;
// otherwise NaN is returned. Empty input returns NaN.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ZScoreInPlace replaces xs with (xs - mean)/std. When the standard
// deviation is zero the centered values are left undivided, so constant
// features normalize to all-zero rather than NaN (Algorithm 1, Line 1
// relies on this).
func ZScoreInPlace(xs []float64) {
	if len(xs) == 0 {
		return
	}
	m := Mean(xs)
	sd := StdDev(xs)
	for i, x := range xs {
		if sd == 0 {
			xs[i] = x - m
		} else {
			xs[i] = (x - m) / sd
		}
	}
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys. It returns NaN when lengths differ, inputs are empty, or either
// input has zero variance.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// HistogramInto counts xs into len(dst) equal-width bins spanning
// [min, max], zeroing them first, and returns dst. Values equal to max
// land in the last bin. A degenerate range (min == max) puts everything
// in bin 0. It returns nil when xs or dst is empty.
//
//selflearn:hotpath
func HistogramInto(dst []int, xs []float64) []int {
	nbins := len(dst)
	if len(xs) == 0 || nbins <= 0 {
		return nil
	}
	lo, hi := Min(xs), Max(xs)
	counts := dst
	for i := range counts {
		counts[i] = 0
	}
	if hi == lo {
		counts[0] = len(xs)
		return counts
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts
}
