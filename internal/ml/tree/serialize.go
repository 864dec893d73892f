package tree

import (
	"encoding/json"
	"errors"
	"fmt"
)

// nodeDTO is the JSON shape of a tree node (array-encoded tree for
// compactness: children refer to indices).
type nodeDTO struct {
	Leaf      bool    `json:"leaf"`
	Positive  bool    `json:"positive,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	Feature   int     `json:"feature,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      int     `json:"left,omitempty"`
	Right     int     `json:"right,omitempty"`
}

type treeDTO struct {
	NumFeatures int       `json:"num_features"`
	Nodes       []nodeDTO `json:"nodes"`
}

// MarshalJSON encodes the tree as an index-linked node array, a compact
// format suitable for flashing onto the wearable.
func (t *Tree) MarshalJSON() ([]byte, error) {
	if t.root == nil {
		return nil, errors.New("tree: empty tree")
	}
	dto := treeDTO{NumFeatures: t.nFeatures}
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(dto.Nodes)
		dto.Nodes = append(dto.Nodes, nodeDTO{})
		if n.leaf {
			dto.Nodes[idx] = nodeDTO{Leaf: true, Positive: n.positive, Prob: n.prob}
			return idx
		}
		d := nodeDTO{Feature: n.feature, Threshold: n.threshold}
		d.Left = walk(n.left)
		d.Right = walk(n.right)
		dto.Nodes[idx] = d
		return idx
	}
	walk(t.root)
	return json.Marshal(dto)
}

// UnmarshalJSON decodes a tree produced by MarshalJSON. The nodes must
// be the tree in preorder, as MarshalJSON writes them: a split's left
// child is the next node, its right child is the node just after its
// left subtree, and every node is reached exactly once. So no two
// splits share a child, and the decoded tree is never larger than its
// input.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var dto treeDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	if len(dto.Nodes) == 0 {
		return errors.New("tree: no nodes")
	}
	if dto.NumFeatures < 1 {
		return fmt.Errorf("tree: invalid feature count %d", dto.NumFeatures)
	}
	nodes := make([]*node, len(dto.Nodes))
	for i := range nodes {
		nodes[i] = &node{}
	}
	// open holds the splits whose right child has not begun, innermost
	// last: a leaf closes a subtree, so the node after it is the
	// innermost open split's right child.
	var open []int
	for i, d := range dto.Nodes {
		if d.Leaf {
			nodes[i].leaf = true
			nodes[i].positive = d.Positive
			nodes[i].prob = d.Prob
			if i+1 == len(nodes) {
				break
			}
			if len(open) == 0 {
				return fmt.Errorf("tree: node %d is reached by no link", i+1)
			}
			p := open[len(open)-1]
			open = open[:len(open)-1]
			if r := dto.Nodes[p].Right; r != i+1 {
				return fmt.Errorf("tree: node %d links right child %d, want %d", p, r, i+1)
			}
			nodes[p].right = nodes[i+1]
			continue
		}
		if i+1 == len(nodes) {
			return fmt.Errorf("tree: split node %d is the last node", i)
		}
		if d.Left != i+1 {
			return fmt.Errorf("tree: node %d links left child %d, want %d", i, d.Left, i+1)
		}
		if d.Feature < 0 || d.Feature >= dto.NumFeatures {
			return fmt.Errorf("tree: node %d splits on invalid feature %d", i, d.Feature)
		}
		nodes[i].feature = d.Feature
		nodes[i].threshold = d.Threshold
		nodes[i].left = nodes[i+1]
		open = append(open, i)
	}
	if len(open) > 0 {
		return errors.New("tree: nodes end before the last right child")
	}
	t.root = nodes[0]
	t.nFeatures = dto.NumFeatures
	t.nodes = len(nodes)
	return nil
}
