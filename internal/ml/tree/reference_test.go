package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// trainReference is the trainer the presorted one replaced, kept as the
// reference it is checked against: every node copies and sorts each
// candidate feature's values and allocates its children's index lists.
// A bootstrap sample is passed with each copy of a row written out.
func trainReference(X [][]float64, y []bool, cfg Config) (*Tree, error) {
	if len(X) == 0 {
		return nil, errors.New("tree: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("tree: %d samples but %d labels", len(X), len(y))
	}
	nf := len(X[0])
	if nf == 0 {
		return nil, errors.New("tree: samples have no features")
	}
	for i, r := range X {
		if len(r) != nf {
			return nil, fmt.Errorf("tree: ragged row %d", i)
		}
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.FeatureSubset > 0 && cfg.Rng == nil {
		return nil, errors.New("tree: FeatureSubset requires an Rng")
	}
	if cfg.FeatureSubset > nf {
		cfg.FeatureSubset = nf
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{nFeatures: nf, importances: make([]float64, nf)}
	t.total = len(X)
	t.root = t.growReference(X, y, idx, 0, cfg)
	return t, nil
}

func countPositives(y []bool, idx []int) int {
	n := 0
	for _, i := range idx {
		if y[i] {
			n++
		}
	}
	return n
}

func (t *Tree) growReference(X [][]float64, y []bool, idx []int, depth int, cfg Config) *node {
	t.nodes++
	pos := countPositives(y, idx)
	makeLeaf := func() *node {
		return &node{
			leaf:     true,
			positive: 2*pos >= len(idx),
			prob:     float64(pos) / float64(len(idx)),
		}
	}
	if pos == 0 || pos == len(idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		len(idx) < 2*cfg.MinLeaf {
		return makeLeaf()
	}
	feats := t.candidateFeatures(cfg)
	bestFeat, bestThr, bestScore := -1, 0.0, math.Inf(1)
	parentGini := gini(pos, len(idx))
	vals := make([]struct {
		v float64
		y bool
	}, len(idx))
	for _, f := range feats {
		for j, i := range idx {
			vals[j].v = X[i][f]
			vals[j].y = y[i]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		// Sweep split positions; maintain left-class counts.
		leftPos, leftN := 0, 0
		for j := 0; j < len(vals)-1; j++ {
			if vals[j].y {
				leftPos++
			}
			leftN++
			if vals[j].v == vals[j+1].v {
				continue // cannot split between equal values
			}
			rightN := len(vals) - leftN
			if leftN < cfg.MinLeaf || rightN < cfg.MinLeaf {
				continue
			}
			rightPos := pos - leftPos
			score := (float64(leftN)*gini(leftPos, leftN) +
				float64(rightN)*gini(rightPos, rightN)) / float64(len(vals))
			if score < bestScore {
				bestScore = score
				bestFeat = f
				bestThr = (vals[j].v + vals[j+1].v) / 2
			}
		}
	}
	if bestFeat < 0 || bestScore >= parentGini-1e-12 {
		return makeLeaf()
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return makeLeaf()
	}
	// Record the impurity decrease this split achieves, weighted by the
	// fraction of training samples reaching the node.
	if t.importances != nil && t.total > 0 {
		leftPos := countPositives(y, leftIdx)
		decrease := parentGini -
			(float64(len(leftIdx))*gini(leftPos, len(leftIdx))+
				float64(len(rightIdx))*gini(pos-leftPos, len(rightIdx)))/float64(len(idx))
		t.importances[bestFeat] += decrease * float64(len(idx)) / float64(t.total)
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.growReference(X, y, leftIdx, depth+1, cfg),
		right:     t.growReference(X, y, rightIdx, depth+1, cfg),
	}
}

func (t *Tree) candidateFeatures(cfg Config) []int {
	if cfg.FeatureSubset <= 0 || cfg.FeatureSubset >= t.nFeatures {
		all := make([]int, t.nFeatures)
		for i := range all {
			all[i] = i
		}
		return all
	}
	// Partial Fisher–Yates draw of FeatureSubset distinct features.
	perm := make([]int, t.nFeatures)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < cfg.FeatureSubset; i++ {
		j := i + cfg.Rng.Intn(t.nFeatures-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:cfg.FeatureSubset]
}
