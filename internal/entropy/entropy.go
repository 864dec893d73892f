// Package entropy implements the nonlinearity measures the paper extracts
// from DWT subbands: permutation entropy (Bandt–Pompe), Rényi entropy,
// and sample entropy, plus Shannon entropy for the extended feature
// bank. Every estimator is a method of Workspace, which owns its
// scratch.
package entropy

import (
	"cmp"
	"math"
	"slices"
)

func logFactorial(n int) float64 {
	var s float64
	for i := 2; i <= n; i++ {
		s += math.Log(float64(i))
	}
	return s
}

// logFactorials[n] is log(n!) for every permutation order, summed once
// by logFactorial's loop.
var logFactorials = func() (t [maxOrder + 1]float64) {
	for n := range t {
		t[n] = logFactorial(n)
	}
	return t
}()

// hasNaN reports whether xs holds a NaN.
func hasNaN(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// sampleCounts returns the match counts (A, B) of tolerances r1 and r2
// for Workspace.samplePair. It dispatches to the sorted early-abort
// path, falling back to the O(n²) pairwise scan, once per tolerance,
// only when the input or a tolerance is NaN (whose comparison
// semantics the sorted pruning cannot reproduce). order is index
// scratch of length >= n-m.
func sampleCounts(xs []float64, m int, r1, r2 float64, order []int32) (a1, b1, a2, b2 int) {
	if math.IsNaN(r1) || math.IsNaN(r2) || hasNaN(xs) {
		a1, b1 = sampleCountsBrute(xs, m, r1)
		a2, b2 = sampleCountsBrute(xs, m, r2)
		return a1, b1, a2, b2
	}
	return sampleCountsSorted(xs, m, r1, r2, order)
}

// sampleCountsBrute is the reference pairwise scan: every template pair,
// Chebyshev distance over the m-length templates, then the m+1 extension.
func sampleCountsBrute(xs []float64, m int, r float64) (a, b int) {
	nTempl := len(xs) - m // templates of length m (those of length m+1 number n-m-1)
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
			if math.Abs(xs[i+m]-xs[j+m]) <= r {
				a++
			}
		}
	}
	return a, b
}

// sampleCountsSorted counts, for both tolerances, the same template
// pairs as the brute scan but enumerates only candidates whose first
// coordinates are within the larger tolerance: template start indices
// are sorted by value, so for each template the inner loop aborts as
// soon as the sorted first-coordinate gap exceeds it. A matching pair
// agrees in every coordinate — in particular the first — so the
// candidate set provably covers all matches of either tolerance, and
// each tolerance's counts (hence its entropy) are identical to the
// brute-force path's. Each predicate is the brute scan's: a coordinate
// matches unless its distance exceeds r, so an Inf − Inf gap (NaN)
// matches, and the m+1 extension matches when its distance is <= r.
// Typical EEG subbands spread their amplitudes well beyond r = k·σ, so
// the quadratic all-pairs scan collapses to near-linear work.
func sampleCountsSorted(xs []float64, m int, r1, r2 float64, order []int32) (a1, b1, a2, b2 int) {
	nTempl := len(xs) - m
	order = order[:nTempl]
	for i := range order {
		order[i] = int32(i)
	}
	if nTempl <= 32 {
		// The serving subbands hold 14 templates: an insertion sort
		// beats the generic sort's set-up. Ties may land in any order;
		// the counts do not depend on it.
		for p := 1; p < nTempl; p++ {
			t := order[p]
			v := xs[t]
			q := p
			for ; q > 0 && xs[order[q-1]] > v; q-- {
				order[q] = order[q-1]
			}
			order[q] = t
		}
	} else {
		slices.SortFunc(order, func(p, q int32) int { //selflearn:alloc-ok non-escaping comparator; stack-allocated, covered by the allocs/op guard
			return cmp.Compare(xs[p], xs[q])
		})
	}
	rmax := max(r1, r2)
	for oi := 0; oi < nTempl-1; oi++ {
		i := int(order[oi])
		vi := xs[i]
		for oj := oi + 1; oj < nTempl; oj++ {
			j := int(order[oj])
			d := xs[j] - vi
			if d > rmax {
				break // every later template is even further in coordinate 0
			}
			m1, m2 := !(d > r1), !(d > r2)
			for k := 1; k < m && (m1 || m2); k++ {
				d = math.Abs(xs[i+k] - xs[j+k])
				m1 = m1 && !(d > r1)
				m2 = m2 && !(d > r2)
			}
			if !m1 && !m2 {
				continue
			}
			d = math.Abs(xs[i+m] - xs[j+m])
			if m1 {
				b1++
				if d <= r1 {
					a1++
				}
			}
			if m2 {
				b2++
				if d <= r2 {
					a2++
				}
			}
		}
	}
	return a1, b1, a2, b2
}
