// Package selection implements the backward-elimination feature ranking
// the paper uses (Section III-A, citing Devijver & Kittler) to sort
// features by relevance and keep the ten most relevant ones.
package selection

import (
	"errors"
	"fmt"
	"math"

	"selflearn/internal/stats"
)

// FisherScore returns the per-feature Fisher discriminant score
// (between-class separation over within-class scatter) of feature column
// f: (μ₁-μ₀)² / (σ₀²+σ₁²). Degenerate features score 0.
func FisherScore(col []float64, labels []bool) (float64, error) {
	if len(col) != len(labels) {
		return 0, fmt.Errorf("selection: %d values but %d labels", len(col), len(labels))
	}
	var pos, neg []float64
	for i, v := range col {
		if labels[i] {
			pos = append(pos, v)
		} else {
			neg = append(neg, v)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return 0, errors.New("selection: need both classes present")
	}
	den := stats.Variance(pos) + stats.Variance(neg)
	num := stats.Mean(pos) - stats.Mean(neg)
	if den == 0 {
		return 0, nil
	}
	return num * num / den, nil
}

// subsetCriterion scores a feature subset with a redundancy-discounted
// class-separability criterion (in the spirit of Devijver & Kittler):
// every feature contributes its Fisher score discounted by its strongest
// absolute correlation with another member of the subset,
//
//	J(S) = Σ_{f∈S} fisher(f) · (1 − max_{g∈S, g≠f} |corr_w(f, g)|),
//
// where corr_w is the pooled *within-class* correlation (class means
// removed), so that two features are only "redundant" when they share
// noise, not merely because both respond to the class label. A near-copy
// of an informative feature contributes almost nothing while its twin is
// present, so backward elimination drops duplicates before genuinely
// complementary features.
func subsetCriterion(fisher []float64, corr [][]float64, subset []int) float64 {
	var total float64
	for i, f := range subset {
		maxCorr := 0.0
		for j, g := range subset {
			if i == j {
				continue
			}
			if c := corr[f][g]; c > maxCorr {
				maxCorr = c
			}
		}
		total += fisher[f] * (1 - maxCorr)
	}
	return total
}

// BackwardElimination ranks the features of the matrix X (rows =
// observations, columns = features) by relevance to the binary labels.
// It repeatedly removes the feature whose removal costs the least
// criterion value; the removal order, reversed, is the relevance ranking
// (most relevant first).
func BackwardElimination(X [][]float64, labels []bool) ([]int, error) {
	if len(X) == 0 {
		return nil, errors.New("selection: empty matrix")
	}
	if len(X) != len(labels) {
		return nil, fmt.Errorf("selection: %d rows but %d labels", len(X), len(labels))
	}
	nf := len(X[0])
	for i, r := range X {
		if len(r) != nf {
			return nil, fmt.Errorf("selection: ragged row %d", i)
		}
	}
	// Column-major copy, z-scored so scale differences don't bias the
	// criterion.
	cols := make([][]float64, nf)
	for f := 0; f < nf; f++ {
		col := make([]float64, len(X))
		for i := range X {
			col[i] = X[i][f]
		}
		stats.ZScoreInPlace(col)
		cols[f] = col
	}
	// Precompute per-feature Fisher scores and the pairwise |correlation|
	// matrix once; backward elimination then only recombines them.
	fisher := make([]float64, nf)
	for f := range cols {
		s, err := FisherScore(cols[f], labels)
		if err != nil {
			return nil, err
		}
		fisher[f] = s
	}
	// Within-class residuals: subtract the per-class mean from every
	// column so the correlation below measures shared noise rather than
	// shared response to the label.
	resid := make([][]float64, nf)
	for f := range cols {
		r := append([]float64(nil), cols[f]...)
		var mPos, mNeg float64
		var nPos, nNeg int
		for i, v := range r {
			if labels[i] {
				mPos += v
				nPos++
			} else {
				mNeg += v
				nNeg++
			}
		}
		if nPos > 0 {
			mPos /= float64(nPos)
		}
		if nNeg > 0 {
			mNeg /= float64(nNeg)
		}
		for i := range r {
			if labels[i] {
				r[i] -= mPos
			} else {
				r[i] -= mNeg
			}
		}
		resid[f] = r
	}
	corr := make([][]float64, nf)
	for i := range corr {
		corr[i] = make([]float64, nf)
	}
	for i := 0; i < nf; i++ {
		for j := i + 1; j < nf; j++ {
			c := math.Abs(stats.Correlation(resid[i], resid[j]))
			if math.IsNaN(c) {
				c = 0
			}
			corr[i][j], corr[j][i] = c, c
		}
	}
	remaining := make([]int, nf)
	for i := range remaining {
		remaining[i] = i
	}
	var removed []int
	for len(remaining) > 1 {
		bestIdx, bestScore := -1, math.Inf(-1)
		for i := range remaining {
			subset := make([]int, 0, len(remaining)-1)
			subset = append(subset, remaining[:i]...)
			subset = append(subset, remaining[i+1:]...)
			score := subsetCriterion(fisher, corr, subset)
			if score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		removed = append(removed, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	removed = append(removed, remaining[0])
	// Reverse: last removed = most relevant.
	rank := make([]int, len(removed))
	for i, f := range removed {
		rank[len(removed)-1-i] = f
	}
	return rank, nil
}
