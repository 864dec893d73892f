// Package tree implements CART binary decision trees with Gini impurity,
// the base learner of the random-forest real-time detector.
package tree

import "math/rand"

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds the tree depth (root = depth 0). <=0 means
	// unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (>=1).
	MinLeaf int
	// FeatureSubset, when positive, examines only that many random
	// features at each split (the random-forest trick). 0 examines all.
	FeatureSubset int
	// Rng drives feature subsetting; may be nil when FeatureSubset is 0.
	Rng *rand.Rand
}

type node struct {
	// Leaf payload.
	leaf bool
	prob float64 // fraction of positive training samples in the leaf
	// Split payload.
	feature   int
	threshold float64
	left      *node // feature value <= threshold
	right     *node // feature value > threshold
}

// Tree is a trained decision tree.
type Tree struct {
	root      *node
	nFeatures int
	nodes     int
	// importances accumulates per-feature Gini impurity decrease,
	// weighted by node size, normalized by the training-set size.
	importances []float64
	total       int
}

// Importances returns the per-feature mean-decrease-in-impurity scores.
func (t *Tree) Importances() []float64 {
	out := make([]float64, t.nFeatures)
	copy(out, t.importances)
	return out
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return t.nodes }

// NumFeatures returns the feature dimensionality the tree was trained on.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// Train grows a tree on X (rows = samples) and binary labels y. It is
// the presorted trainer with every row drawn once (see Presort.Grow);
// a NaN feature is an error naming its row and column.
func Train(X [][]float64, y []bool, cfg Config) (*Tree, error) {
	p, err := NewPresort(X, y)
	if err != nil {
		return nil, err
	}
	mult := make([]int, len(X))
	for i := range mult {
		mult[i] = 1
	}
	return p.Grow(mult, cfg)
}

func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

// Predict returns the class of x.
func (t *Tree) Predict(x []float64) bool {
	return t.Prob(x) >= 0.5
}

// Prob returns the positive-class probability estimate for x (the
// positive fraction of the training samples in x's leaf).
func (t *Tree) Prob(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}
