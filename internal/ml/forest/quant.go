package forest

import (
	"sort"

	"selflearn/internal/fixedpoint"
	"selflearn/internal/ml/tree"
)

// QuantForest is the int16-quantized companion of a FlatForest: the
// same preorder node tables at half the node width (8-byte
// tree.QuantNode vs 16-byte tree.FlatNode), descended with the same
// branch-free child select and 4-way lock-step walk. Thresholds are
// stored as ranks in per-feature cut grids (fixedpoint.Bins) and rows
// are quantized to int16 rank codes once per window, so every split
// comparison — and every decision — is exactly the float forest's (see
// Bins.Code for the order-preservation argument; TestQuantParity and
// FuzzQuantParity pin it empirically, and the learner additionally
// verifies every trained model against its training rows before
// publishing). A QuantForest is immutable after construction and safe
// for concurrent use.
type QuantForest struct {
	nodes     []tree.QuantNode
	roots     []int32
	cuts      []fixedpoint.Bins // per-feature threshold grids
	nFeatures int
}

// quantizeForest builds the int16 companion of ff, or returns nil when
// the forest does not fit the int16 code space (more than
// tree.MaxQuantCuts distinct thresholds on one feature, or feature
// indices beyond int16 range) — callers then simply keep using the
// float path for that model.
func quantizeForest(ff *FlatForest) *QuantForest {
	if ff == nil || len(ff.roots) == 0 || ff.nFeatures > 1<<15-1 {
		return nil
	}
	cuts := make([]fixedpoint.Bins, ff.nFeatures)
	for _, n := range ff.nodes {
		if n.Feature >= 0 {
			cuts[n.Feature] = append(cuts[n.Feature], n.Value)
		}
	}
	for f, c := range cuts {
		sort.Float64s(c)
		uniq := c[:0]
		for i, v := range c {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		if len(uniq) > tree.MaxQuantCuts {
			return nil
		}
		cuts[f] = uniq
	}
	qf := &QuantForest{
		nodes:     make([]tree.QuantNode, len(ff.nodes)),
		roots:     ff.roots,
		cuts:      cuts,
		nFeatures: ff.nFeatures,
	}
	for i, n := range ff.nodes {
		if n.Feature < 0 {
			qf.nodes[i] = tree.QuantNode{Feature: tree.QuantLeafFeature, Cut: int16(n.Right)}
			continue
		}
		grid := cuts[n.Feature]
		rank := sort.SearchFloat64s(grid, n.Value)
		// The grid was built from these exact values; a miss would mean a
		// NaN threshold (sort.SearchFloat64s cannot locate NaN). Refuse to
		// quantize rather than mis-route such a degenerate split.
		if rank >= len(grid) || grid[rank] != n.Value {
			return nil
		}
		qf.nodes[i] = tree.QuantNode{
			Feature: int16(n.Feature),
			Cut:     int16(rank),
			Right:   n.Right,
		}
	}
	return qf
}

// NumFeatures returns the feature dimensionality the forest was trained on.
//
//selflearn:hotpath
func (qf *QuantForest) NumFeatures() int { return qf.nFeatures }

// QuantizeRowInto writes the int16 rank codes of feature row x into
// dst, which must have capacity for NumFeatures codes, and returns
// dst[:NumFeatures]. len(x) must be at least NumFeatures. It allocates
// nothing; one call quantizes a row for every tree in the forest.
//
//selflearn:hotpath
func (qf *QuantForest) QuantizeRowInto(dst []int16, x []float64) []int16 {
	dst = dst[:qf.nFeatures]
	for f := range dst {
		dst[f] = int16(qf.cuts[f].Code(x[f]))
	}
	return dst
}

// qstep advances one descent cursor by a single level — the int16 twin
// of step(): the child select is the same SETcc arithmetic, and
// codes[f] <= Cut holds exactly when the float comparison x <= threshold
// does (Bins.Code is order-exact, NaN codes above every cut).
//
//selflearn:hotpath
func qstep(codes []int16, n tree.QuantNode, i int32) int32 {
	var b int32
	if codes[n.Feature] <= n.Cut {
		b = 1
	}
	return n.Right + (i+1-n.Right)*b
}

// votes counts the trees classifying the coded row positive, walking
// four trees in lock-step exactly as FlatForest.votes does.
//
//selflearn:hotpath
func (qf *QuantForest) votes(codes []int16) int {
	nodes := qf.nodes
	roots := qf.roots
	votes := int32(0)
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		i0, i1, i2, i3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		for n0.Feature >= 0 || n1.Feature >= 0 || n2.Feature >= 0 || n3.Feature >= 0 {
			if n0.Feature >= 0 {
				i0 = qstep(codes, n0, i0)
				n0 = nodes[i0]
			}
			if n1.Feature >= 0 {
				i1 = qstep(codes, n1, i1)
				n1 = nodes[i1]
			}
			if n2.Feature >= 0 {
				i2 = qstep(codes, n2, i2)
				n2 = nodes[i2]
			}
			if n3.Feature >= 0 {
				i3 = qstep(codes, n3, i3)
				n3 = nodes[i3]
			}
		}
		votes += int32(n0.Cut) + int32(n1.Cut) + int32(n2.Cut) + int32(n3.Cut)
	}
	for ; t < len(roots); t++ {
		i := roots[t]
		n := nodes[i]
		for n.Feature >= 0 {
			i = qstep(codes, n, i)
			n = nodes[i]
		}
		votes += int32(n.Cut)
	}
	return int(votes)
}

// Predict returns the majority-vote class for a coded row. It
// allocates nothing.
//
//selflearn:hotpath
func (qf *QuantForest) Predict(codes []int16) bool {
	return 2*qf.votes(codes) >= len(qf.roots)
}

// PredictBatchInto classifies nRows coded rows laid out contiguously in
// the codes arena (row r at codes[r*NumFeatures : (r+1)*NumFeatures])
// into dst and returns dst[:nRows]. The walk is tree-major with the
// same 4-row lock-step as FlatForest.treeVotes; the arena layout is
// what lets the coalescing drain score many patients' windows in one
// pass without per-row slice headers. Batches up to 64 rows allocate
// nothing.
//
//selflearn:hotpath
func (qf *QuantForest) PredictBatchInto(dst []bool, codes []int16, nRows int) []bool {
	dst = dst[:nRows]
	if nRows == 0 {
		return dst
	}
	var stack [smallBatch]int32
	var votes []int32
	if nRows <= smallBatch {
		votes = stack[:nRows]
		for i := range votes {
			votes[i] = 0
		}
	} else {
		votes = make([]int32, nRows) //selflearn:alloc-ok large-batch spill, mirroring FlatForest.PredictBatchInto
	}
	nf := qf.nFeatures
	nodes := qf.nodes
	for t := range qf.roots {
		root := qf.roots[t]
		r := 0
		for ; r+4 <= nRows; r += 4 {
			x0 := codes[r*nf : r*nf+nf : r*nf+nf]
			x1 := codes[(r+1)*nf : (r+1)*nf+nf : (r+1)*nf+nf]
			x2 := codes[(r+2)*nf : (r+2)*nf+nf : (r+2)*nf+nf]
			x3 := codes[(r+3)*nf : (r+3)*nf+nf : (r+3)*nf+nf]
			i0, i1, i2, i3 := root, root, root, root
			n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
			for n0.Feature >= 0 || n1.Feature >= 0 || n2.Feature >= 0 || n3.Feature >= 0 {
				if n0.Feature >= 0 {
					i0 = qstep(x0, n0, i0)
					n0 = nodes[i0]
				}
				if n1.Feature >= 0 {
					i1 = qstep(x1, n1, i1)
					n1 = nodes[i1]
				}
				if n2.Feature >= 0 {
					i2 = qstep(x2, n2, i2)
					n2 = nodes[i2]
				}
				if n3.Feature >= 0 {
					i3 = qstep(x3, n3, i3)
					n3 = nodes[i3]
				}
			}
			votes[r] += int32(n0.Cut)
			votes[r+1] += int32(n1.Cut)
			votes[r+2] += int32(n2.Cut)
			votes[r+3] += int32(n3.Cut)
		}
		for ; r < nRows; r++ {
			x := codes[r*nf : r*nf+nf : r*nf+nf]
			i := root
			n := nodes[i]
			for n.Feature >= 0 {
				i = qstep(x, n, i)
				n = nodes[i]
			}
			votes[r] += int32(n.Cut)
		}
	}
	nTrees := int32(len(qf.roots))
	for i, v := range votes {
		dst[i] = 2*v >= nTrees
	}
	return dst
}
