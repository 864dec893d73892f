package tree

// FlatNode is one node of a pointer-free tree representation, 16 bytes
// wide so four nodes share a cache line. Internal nodes: Feature >= 0,
// Value is the split threshold, the left child is implicitly the next
// node (preorder layout) and Right indexes the right child. Leaves:
// Feature == -1, Value is the leaf's positive-class probability, and
// Right holds the majority vote as 0/1 so the descent loop can
// accumulate votes without a data-dependent branch.
type FlatNode struct {
	Feature int32
	Right   int32
	Value   float64
}

// LeafFeature marks a leaf in FlatNode.Feature.
const LeafFeature int32 = -1

// AppendFlat appends the tree's nodes to dst in preorder (node, left
// subtree, right subtree) and returns the extended slice. Right-child
// indices are absolute positions in dst, so multiple trees can be packed
// into one contiguous table; the caller records len(dst) before the call
// as the tree's root index.
func (t *Tree) AppendFlat(dst []FlatNode) []FlatNode {
	var walk func(n *node)
	walk = func(n *node) {
		idx := len(dst)
		if n.leaf {
			// The vote mirrors Predict's prob >= 0.5 rule.
			var vote int32
			if n.prob >= 0.5 {
				vote = 1
			}
			dst = append(dst, FlatNode{Feature: LeafFeature, Right: vote, Value: n.prob})
			return
		}
		dst = append(dst, FlatNode{Feature: int32(n.feature), Value: n.threshold})
		walk(n.left) // lands at idx+1: the implicit left child
		dst[idx].Right = int32(len(dst))
		walk(n.right)
	}
	walk(t.root)
	return dst
}
