// Package forest implements the bootstrap-aggregated random forest used
// as the supervised real-time seizure detector (after Sopic et al.'s
// e-Glass, the paper's reference [7], which feeds 54 features per
// electrode pair into a random forest).
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"selflearn/internal/ml/tree"
)

// Config controls forest training.
type Config struct {
	// NumTrees is the ensemble size.
	NumTrees int
	// MaxDepth bounds each tree (<=0 unbounded).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size.
	MinLeaf int
	// FeatureSubset per split; 0 selects the √F default.
	FeatureSubset int
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig returns a forest configuration suited to the window
// classification task.
func DefaultConfig() Config {
	return Config{NumTrees: 50, MaxDepth: 10, MinLeaf: 2, Seed: 1}
}

// Forest is a trained random forest.
type Forest struct {
	trees []*tree.Tree
	oob   float64
}

// Train fits a random forest on X and binary labels y. A NaN feature
// is an error naming its row and column.
func Train(X [][]float64, y []bool, cfg Config) (*Forest, error) {
	if len(X) == 0 {
		return nil, errors.New("forest: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("forest: %d samples but %d labels", len(X), len(y))
	}
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("forest: invalid ensemble size %d", cfg.NumTrees)
	}
	// Sort every feature once; each tree grows from this presort.
	p, err := tree.NewPresort(X, y)
	if err != nil {
		return nil, err
	}
	nf := len(X[0])
	sub := cfg.FeatureSubset
	if sub <= 0 {
		sub = int(math.Sqrt(float64(nf)))
		if sub < 1 {
			sub = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	// Out-of-bag vote tally per sample.
	oobVotes := make([]int, len(X))
	oobCount := make([]int, len(X))
	mult := make([]int, len(X))
	for t := 0; t < cfg.NumTrees; t++ {
		// Bootstrap sample, as the number of times each row is drawn.
		clear(mult)
		for range X {
			mult[rng.Intn(len(X))]++
		}
		tr, err := p.Grow(mult, tree.Config{
			MaxDepth:      cfg.MaxDepth,
			MinLeaf:       cfg.MinLeaf,
			FeatureSubset: sub,
			Rng:           rng,
		})
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, tr)
		for i, k := range mult {
			if k > 0 {
				continue
			}
			oobCount[i]++
			if tr.Predict(X[i]) {
				oobVotes[i]++
			}
		}
	}
	// Out-of-bag error estimate.
	var wrong, counted int
	for i := range X {
		if oobCount[i] == 0 {
			continue
		}
		counted++
		pred := 2*oobVotes[i] >= oobCount[i]
		if pred != y[i] {
			wrong++
		}
	}
	if counted > 0 {
		f.oob = float64(wrong) / float64(counted)
	} else {
		f.oob = math.NaN()
	}
	return f, nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// OOBError returns the out-of-bag misclassification estimate (NaN when
// no sample was ever out of bag).
func (f *Forest) OOBError() float64 { return f.oob }

// Prob returns the fraction of trees voting positive for x.
func (f *Forest) Prob(x []float64) float64 {
	votes := 0
	for _, t := range f.trees {
		if t.Predict(x) {
			votes++
		}
	}
	return float64(votes) / float64(len(f.trees))
}

// Predict returns the majority-vote class for x.
func (f *Forest) Predict(x []float64) bool { return f.Prob(x) >= 0.5 }

// PredictBatch classifies every row of X.
func (f *Forest) PredictBatch(X [][]float64) []bool {
	out := make([]bool, len(X))
	for i, x := range X {
		out[i] = f.Predict(x)
	}
	return out
}

// Importances returns per-feature mean-decrease-in-impurity scores
// averaged over the ensemble and normalized to sum to 1 (all zeros when
// the trees carry no importances, e.g. after deserialization).
func (f *Forest) Importances() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	nf := f.trees[0].NumFeatures()
	acc := make([]float64, nf)
	for _, t := range f.trees {
		for i, v := range t.Importances() {
			acc[i] += v
		}
	}
	var total float64
	for _, v := range acc {
		total += v
	}
	if total > 0 {
		for i := range acc {
			acc[i] /= total
		}
	}
	return acc
}
