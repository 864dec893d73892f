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

// sampleCounts returns (A, B): matches of length m+1 and m over template
// pairs i<j. It dispatches to the sorted early-abort path, falling back
// to the O(n²) pairwise scan only when the input contains NaN (whose
// comparison semantics the sorted pruning cannot reproduce). order is
// optional index scratch of length >= n-m.
func sampleCounts(xs []float64, m int, r float64, order []int32) (a, b int) {
	if math.IsNaN(r) {
		return sampleCountsBrute(xs, m, r)
	}
	for _, v := range xs {
		if math.IsNaN(v) {
			return sampleCountsBrute(xs, m, r)
		}
	}
	return sampleCountsSorted(xs, m, r, order)
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

// sampleCountsSorted counts the same template pairs as the brute scan
// but enumerates only candidates whose first coordinates are within r:
// template start indices are sorted by value, so for each template the
// inner loop aborts as soon as the sorted first-coordinate gap exceeds
// r. A matching pair agrees in every coordinate — in particular the
// first — so the candidate set provably covers all matches and the
// counts (hence the entropy) are identical to the brute-force path.
// Typical EEG subbands spread their amplitudes well beyond r = k·σ, so
// the quadratic all-pairs scan collapses to near-linear work.
func sampleCountsSorted(xs []float64, m int, r float64, order []int32) (a, b int) {
	nTempl := len(xs) - m
	if cap(order) < nTempl {
		order = make([]int32, nTempl)
	}
	order = order[:nTempl]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(p, q int32) int { //selflearn:alloc-ok non-escaping comparator; stack-allocated, covered by the allocs/op guard
		return cmp.Compare(xs[p], xs[q])
	})
	for oi := 0; oi < nTempl-1; oi++ {
		i := int(order[oi])
		vi := xs[i]
		for oj := oi + 1; oj < nTempl; oj++ {
			j := int(order[oj])
			if xs[j]-vi > r {
				break // every later template is even further in coordinate 0
			}
			match := true
			for k := 1; k < m; k++ {
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
