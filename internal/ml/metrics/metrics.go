// Package metrics provides the binary-classification metrics the paper
// evaluates with: sensitivity, specificity and their geometric mean.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// Confusion is a binary confusion matrix; the positive class is
// "seizure".
type Confusion struct {
	TP, FP, TN, FN int
}

// Count updates the matrix with one (predicted, actual) pair.
func (c *Confusion) Count(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// FromSlices builds a confusion matrix from parallel prediction/label
// slices.
func FromSlices(predicted, actual []bool) (Confusion, error) {
	if len(predicted) != len(actual) {
		return Confusion{}, fmt.Errorf("metrics: %d predictions but %d labels", len(predicted), len(actual))
	}
	if len(predicted) == 0 {
		return Confusion{}, errors.New("metrics: empty inputs")
	}
	var c Confusion
	for i := range predicted {
		c.Count(predicted[i], actual[i])
	}
	return c, nil
}

// Sensitivity (true positive rate, recall): TP/(TP+FN). NaN when the
// positive class is absent.
func (c Confusion) Sensitivity() float64 {
	den := c.TP + c.FN
	if den == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(den)
}

// Specificity (true negative rate): TN/(TN+FP). NaN when the negative
// class is absent.
func (c Confusion) Specificity() float64 {
	den := c.TN + c.FP
	if den == 0 {
		return math.NaN()
	}
	return float64(c.TN) / float64(den)
}

// GeometricMean returns √(sensitivity·specificity), the paper's headline
// metric for the real-time detector (Fig. 4).
func (c Confusion) GeometricMean() float64 {
	se, sp := c.Sensitivity(), c.Specificity()
	if math.IsNaN(se) || math.IsNaN(sp) {
		return math.NaN()
	}
	return math.Sqrt(se * sp)
}

// String formats the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d se=%.4f sp=%.4f gmean=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Sensitivity(), c.Specificity(), c.GeometricMean())
}
