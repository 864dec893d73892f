package forest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"selflearn/internal/ml/tree"
)

// The pointer forest's own walk, kept as the reference the flat
// forest's equivalence tests compare against. Train's OOB estimate
// walks the trees with tree.Predict too.

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

// refNode and refTree are a checkpoint's node and tree objects as
// encoding/json decodes them.
type refNode struct {
	Leaf      bool    `json:"leaf"`
	Prob      float64 `json:"prob"`
	Feature   int     `json:"feature"`
	Threshold float64 `json:"threshold"`
	Left      int     `json:"left"`
	Right     int     `json:"right"`
}

type refTree struct {
	NumFeatures int       `json:"num_features"`
	Nodes       []refNode `json:"nodes"`
}

// referenceLoad is LoadFlat's reference: it decodes a checkpoint with
// encoding/json, holds each tree to the preorder links, and builds the
// flat forest from the decoded nodes. FuzzLoadFlatMatchesReference
// checks that whatever LoadFlat accepts, this reads to the same forest.
func referenceLoad(data []byte) (*FlatForest, error) {
	var dto struct {
		Trees    []*refTree `json:"trees"`
		OOBError float64    `json:"oob_error"`
	}
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if len(dto.Trees) == 0 {
		return nil, errors.New("no trees")
	}
	ff := &FlatForest{oob: dto.OOBError}
	if ff.oob < 0 {
		ff.oob = math.NaN()
	}
	for i, t := range dto.Trees {
		if t == nil {
			return nil, fmt.Errorf("tree %d is null", i)
		}
		if t.NumFeatures != dto.Trees[0].NumFeatures {
			return nil, fmt.Errorf("tree %d reads %d features, tree 0 reads %d", i, t.NumFeatures, dto.Trees[0].NumFeatures)
		}
		ff.roots = append(ff.roots, int32(len(ff.nodes)))
		nodes, err := t.flat(len(ff.nodes))
		if err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		ff.nodes = append(ff.nodes, nodes...)
	}
	ff.nFeatures = dto.Trees[0].NumFeatures
	ff.quant = quantizeForest(ff)
	return ff, nil
}

// flat returns the tree's nodes as flat nodes at offset base of the
// node table. The nodes must be the tree in preorder: a split's left
// child is the next node, its right child is the node just after its
// left subtree, and every node is reached exactly once. open holds the
// splits whose right child has not begun, innermost last: a leaf closes
// a subtree, so the node after it is the innermost open split's right
// child.
func (t *refTree) flat(base int) ([]tree.FlatNode, error) {
	if len(t.Nodes) == 0 {
		return nil, errors.New("no nodes")
	}
	if t.NumFeatures < 1 {
		return nil, fmt.Errorf("invalid feature count %d", t.NumFeatures)
	}
	out := make([]tree.FlatNode, len(t.Nodes))
	var open []int
	for i, d := range t.Nodes {
		if d.Leaf {
			var vote int32
			if d.Prob >= 0.5 {
				vote = 1
			}
			out[i] = tree.FlatNode{Feature: tree.LeafFeature, Right: vote, Value: d.Prob}
			if i+1 == len(out) {
				break
			}
			if len(open) == 0 {
				return nil, fmt.Errorf("node %d is reached by no link", i+1)
			}
			p := open[len(open)-1]
			open = open[:len(open)-1]
			if r := t.Nodes[p].Right; r != i+1 {
				return nil, fmt.Errorf("node %d links right child %d, want %d", p, r, i+1)
			}
			out[p].Right = int32(base + i + 1)
			continue
		}
		if d.Left != i+1 {
			return nil, fmt.Errorf("node %d links left child %d, want %d", i, d.Left, i+1)
		}
		if d.Feature < 0 || d.Feature >= t.NumFeatures {
			return nil, fmt.Errorf("node %d splits on invalid feature %d", i, d.Feature)
		}
		out[i] = tree.FlatNode{Feature: int32(d.Feature), Value: d.Threshold}
		open = append(open, i)
	}
	if len(open) > 0 {
		return nil, errors.New("nodes end before the last right child")
	}
	return out, nil
}
