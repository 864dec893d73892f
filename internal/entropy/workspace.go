package entropy

import (
	"fmt"
	"math"
	"slices"

	"selflearn/internal/stats"
)

// Workspace owns the reusable scratch of the entropy estimators: the
// ordinal-pattern tally of permutation entropy, the amplitude histogram
// behind Rényi/Shannon, and the sorted index buffer of the sample
// entropy fast path. A reused workspace gives results bit-identical to
// a fresh one while allocating nothing in steady state. The zero value
// is ready to use; a Workspace is not safe for concurrent
// use: one per goroutine; a serving worker's sessions share one.
type Workspace struct {
	counts map[uint64]int
	cs     []int
	hist   []int
	order  []int32
}

// Permutation returns the permutation entropy of order n (embedding
// dimension) with unit delay, normalized to [0, 1] by log(n!). It follows
// Bandt and Pompe, "Permutation Entropy: A Natural Complexity Measure for
// Time Series". The paper uses n = 5 and n = 7 on DWT subbands.
//
// Signals shorter than n return 0 (no ordinal patterns exist). Ties are
// broken by temporal order, the standard convention.
//
//selflearn:hotpath
func (ws *Workspace) Permutation(xs []float64, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("entropy: permutation order must be >= 2, got %d", n)
	}
	if n > 12 {
		return 0, fmt.Errorf("entropy: permutation order %d too large (max 12)", n)
	}
	if len(xs) < n {
		return 0, nil
	}
	if ws.counts == nil {
		ws.counts = make(map[uint64]int)
	}
	clear(ws.counts)
	var idx [12]int
	total := 0
	for start := 0; start+n <= len(xs); start++ {
		win := xs[start : start+n]
		for i := 0; i < n; i++ {
			idx[i] = i
		}
		// Stable insertion sort of the pattern indices by value (ties
		// keep temporal order): identical ordering to sort.SliceStable
		// without its closure and interface costs.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && win[idx[j]] < win[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		// Encode the permutation as a base-n integer (n <= 12 fits easily).
		var code uint64
		for _, v := range idx[:n] {
			code = code*uint64(n) + uint64(v)
		}
		ws.counts[code]++
		total++
	}
	// Accumulate in a deterministic order: map iteration order is random
	// in Go and would otherwise perturb the last float bits run-to-run.
	ws.cs = ws.cs[:0]
	for _, c := range ws.counts {
		ws.cs = append(ws.cs, c)
	}
	slices.Sort(ws.cs)
	var h float64
	for _, c := range ws.cs {
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	// Normalize by the maximum attainable entropy log(n!).
	maxH := logFactorial(n)
	if maxH == 0 {
		return 0, nil
	}
	return h / maxH, nil
}

// histogram bins xs into nbins reused workspace bins and returns the
// counts with their total, mirroring stats.Histogram.
func (ws *Workspace) histogram(xs []float64, nbins int) ([]int, int) {
	if cap(ws.hist) < nbins {
		ws.hist = make([]int, nbins)
	}
	ws.hist = ws.hist[:nbins]
	counts := stats.HistogramInto(ws.hist, xs)
	total := 0
	for _, c := range counts {
		total += c
	}
	return counts, total
}

// RenyiSignal computes the Rényi entropy of order alpha (nats) of a
// signal by histogramming it into nbins amplitude bins; alpha == 1 gives
// Shannon entropy, its limit. This is how the paper's "third level Rényi
// entropy" feature is realised on DWT coefficients. Empty input
// returns 0.
//
//selflearn:hotpath
func (ws *Workspace) RenyiSignal(xs []float64, alpha float64, nbins int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if nbins <= 0 {
		return 0, fmt.Errorf("entropy: invalid bin count %d", nbins)
	}
	if alpha <= 0 {
		return 0, fmt.Errorf("entropy: Rényi order must be positive, got %g", alpha)
	}
	counts, total := ws.histogram(xs, nbins)
	if total == 0 {
		return 0, nil
	}
	if alpha == 1 {
		return shannonCounts(counts, total), nil
	}
	// Empty bins are skipped, in bin order.
	var s float64
	for _, c := range counts {
		if c > 0 {
			s += math.Pow(float64(c)/float64(total), alpha)
		}
	}
	if s == 0 {
		return 0, nil
	}
	return math.Log(s) / (1 - alpha), nil
}

// ShannonSignal computes the Shannon entropy (nats) of a signal via an
// nbins amplitude histogram. Empty input returns 0.
func (ws *Workspace) ShannonSignal(xs []float64, nbins int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if nbins <= 0 {
		return 0, fmt.Errorf("entropy: invalid bin count %d", nbins)
	}
	counts, total := ws.histogram(xs, nbins)
	if total == 0 {
		return 0, nil
	}
	return shannonCounts(counts, total), nil
}

func shannonCounts(counts []int, total int) float64 {
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

// Sample returns the sample entropy SampEn(m, r) of xs following
// Richman–Moorman as used by Chen et al. (paper reference [27]): the
// negative logarithm of the conditional probability that sequences
// matching for m points (Chebyshev distance <= r) also match for m+1
// points. Self-matches are excluded.
//
// r is an absolute tolerance; use SampleK to express it as k·σ as the
// paper does (k = 0.2 and k = 0.35). Degenerate inputs (too short, or no
// matches) return 0. The sorted index scratch is reused across calls.
func (ws *Workspace) Sample(xs []float64, m int, r float64) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("entropy: sample entropy m must be >= 1, got %d", m)
	}
	if r < 0 {
		return 0, fmt.Errorf("entropy: sample entropy tolerance must be >= 0, got %g", r)
	}
	if len(xs) < m+2 {
		return 0, nil
	}
	if n := len(xs) - m; cap(ws.order) < n {
		ws.order = make([]int32, n)
	}
	a, b := sampleCounts(xs, m, r, ws.order)
	if a == 0 || b == 0 {
		return 0, nil
	}
	return -math.Log(float64(a) / float64(b)), nil
}

// SampleK returns Sample(xs, m, k·σ(xs)), the paper's parameterisation
// ("sixth level sample entropy for k = 0.2 and k = 0.35").
//
//selflearn:hotpath
func (ws *Workspace) SampleK(xs []float64, m int, k float64) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("entropy: sample entropy k must be >= 0, got %g", k)
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return ws.Sample(xs, m, k*stats.StdDev(xs))
}
