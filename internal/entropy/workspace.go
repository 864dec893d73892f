package entropy

import (
	"fmt"
	"math"
	"slices"

	"selflearn/internal/stats"
)

// Workspace owns the reusable scratch of the entropy estimators: the
// ordinal-pattern codes and their dense tally of permutation entropy,
// the amplitude histogram behind Rényi/Shannon, and the sorted index
// buffer of the sample entropy fast path. A reused workspace gives
// results bit-identical to a fresh one while allocating nothing in
// steady state. The zero value is ready to use; a Workspace is not
// safe for concurrent use: one per goroutine; a serving worker's
// sessions share one.
type Workspace struct {
	codes []int32 // one ordinal-pattern code per window
	tally []int32 // dense count per code, all zero between calls
	cs    []int
	hist  []int
	order []int32
}

// maxOrder is the largest permutation order; maxDense the largest
// whose n! cells the dense tally holds (7! = 5,040).
const (
	maxOrder = 12
	maxDense = 7
)

// factorials[n] is n!, the number of ordinal patterns of order n.
var factorials = [maxDense + 1]int{1, 1, 2, 6, 24, 120, 720, 5040}

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
	if n > maxOrder {
		return 0, fmt.Errorf("entropy: permutation order %d too large (max %d)", n, maxOrder)
	}
	if len(xs) < n {
		return 0, nil
	}
	codes := ws.patternCodes(xs, n)
	// Collect each pattern's count; their order does not matter, as
	// they are summed sorted below.
	ws.cs = ws.cs[:0]
	if n <= maxDense {
		if len(ws.tally) < factorials[n] {
			ws.tally = make([]int32, factorials[n])
		}
		t := ws.tally
		for _, c := range codes {
			t[c]++
		}
		// The codes list every touched cell: read each once and clear
		// it, so the table is all zero again for the next call.
		for _, c := range codes {
			if t[c] != 0 {
				ws.cs = append(ws.cs, int(t[c]))
				t[c] = 0
			}
		}
	} else {
		slices.Sort(codes)
		for i := 0; i < len(codes); {
			j := i + 1
			for j < len(codes) && codes[j] == codes[i] {
				j++
			}
			ws.cs = append(ws.cs, j-i)
			i = j
		}
	}
	// Accumulate in ascending count order, a deterministic order for
	// the float sum's last bits.
	slices.Sort(ws.cs)
	total := len(codes)
	var h float64
	for _, c := range ws.cs {
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	// Normalize by the maximum attainable entropy log(n!).
	return h / logFactorials[n], nil
}

// patternCodes codes the ordinal pattern of every n-sample window of xs
// into ws.codes by its inversion table r_j = #{i < j : x_i > x_j}, as
// code = code·(j+1) + r_j, which lands in [0, n!). With ties kept in
// temporal order, the inversion table names the same class as the
// stable sort of the window's indices by value. NaN defeats that
// (comparisons with it are all false), so a signal holding NaN takes
// the stable insertion sort and codes the order it yields by the
// inversion table of its ranks, which for a NaN-free window is the
// same table.
func (ws *Workspace) patternCodes(xs []float64, n int) []int32 {
	nw := len(xs) - n + 1
	if cap(ws.codes) < nw {
		ws.codes = make([]int32, nw)
	}
	codes := ws.codes[:nw]
	if !hasNaN(xs) {
		for s := range codes {
			codes[s] = inversionCode(xs[s : s+n])
		}
		return codes
	}
	var idx [maxOrder]int
	var rank [maxOrder]float64
	for s := range codes {
		win := xs[s : s+n]
		for i := 0; i < n; i++ {
			idx[i] = i
		}
		// Stable insertion sort of the pattern indices by value.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && win[idx[j]] < win[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		for k, i := range idx[:n] {
			rank[i] = float64(k)
		}
		codes[s] = inversionCode(rank[:n])
	}
	return codes
}

// inversionCode returns the mixed-radix code of win's inversion table.
func inversionCode(win []float64) int32 {
	var code int32
	for j := 1; j < len(win); j++ {
		v := win[j]
		var r int32
		for _, u := range win[:j] {
			if u > v {
				r++
			}
		}
		code = code*int32(j+1) + r
	}
	return code
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
	// Empty bins are skipped, in bin order. At α = 2, p·p is
	// math.Pow(p, 2) to the bit: Pow squares the mantissa and rescales
	// exactly, and p >= 1/total keeps p² normal.
	var s float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			if alpha == 2 {
				s += p * p
			} else {
				s += math.Pow(p, alpha)
			}
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
		return 0, errSampleM(m)
	}
	if r < 0 {
		return 0, fmt.Errorf("entropy: sample entropy tolerance must be >= 0, got %g", r)
	}
	se, _ := ws.samplePair(xs, m, r, r)
	return se, nil
}

// SampleK returns Sample(xs, m, k·σ(xs)), the paper's parameterisation
// ("sixth level sample entropy for k = 0.2 and k = 0.35").
//
//selflearn:hotpath
func (ws *Workspace) SampleK(xs []float64, m int, k float64) (float64, error) {
	se, _, err := ws.SampleKPair(xs, m, k, k)
	return se, err
}

// SampleKPair returns SampleK(xs, m, k1) and SampleK(xs, m, k2), bit
// for bit, from one sort of the templates and one scan of the pairs,
// and fails with the error the first of those two calls to fail would
// return.
//
//selflearn:hotpath
func (ws *Workspace) SampleKPair(xs []float64, m int, k1, k2 float64) (se1, se2 float64, err error) {
	if k1 < 0 {
		return 0, 0, errSampleK(k1)
	}
	if len(xs) > 0 && m < 1 {
		return 0, 0, errSampleM(m)
	}
	if k2 < 0 {
		return 0, 0, errSampleK(k2)
	}
	if len(xs) == 0 {
		return 0, 0, nil
	}
	// σ >= 0 or NaN, so neither tolerance is negative.
	sd := stats.StdDev(xs)
	se1, se2 = ws.samplePair(xs, m, k1*sd, k2*sd)
	return se1, se2, nil
}

// errSampleK and errSampleM build the sample entropy's argument errors.
//
//selflearn:alloc-ok reached only from cold error branches
func errSampleK(k float64) error {
	return fmt.Errorf("entropy: sample entropy k must be >= 0, got %g", k)
}

//selflearn:alloc-ok reached only from cold error branches
func errSampleM(m int) error {
	return fmt.Errorf("entropy: sample entropy m must be >= 1, got %d", m)
}

// samplePair returns SampEn(m, r1) and SampEn(m, r2) of xs, for m >= 1
// and tolerances that are not negative.
func (ws *Workspace) samplePair(xs []float64, m int, r1, r2 float64) (se1, se2 float64) {
	if len(xs) < m+2 {
		return 0, 0
	}
	if n := len(xs) - m; cap(ws.order) < n {
		ws.order = make([]int32, n)
	}
	a1, b1, a2, b2 := sampleCounts(xs, m, r1, r2, ws.order)
	return sampEn(a1, b1), sampEn(a2, b2)
}

// sampEn is −log(A/B), or 0 without matches.
func sampEn(a, b int) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return -math.Log(float64(a) / float64(b))
}
