package forest

import (
	"runtime"
	"sync"

	"selflearn/internal/ml/tree"
)

// FlatForest is the inference-optimized form of a trained forest: every
// tree packed into one contiguous node table (see tree.FlatNode — 16
// bytes per node, left child implicit in preorder layout), no pointers
// to chase and nothing allocated per prediction. It votes exactly as
// the pointer trees it was flattened from, and is immutable after
// construction, so one instance may be shared by any number of
// goroutines. It is the one representation everything after Train
// reads: the classifiers in serve and pipeline, the checkpoint
// (MarshalJSON and LoadFlat) and the C export. The pointer Forest
// remains the trainer's output, for its importances.
type FlatForest struct {
	nodes     []tree.FlatNode
	roots     []int32
	nFeatures int
	oob       float64

	// quant is the int16-quantized companion (see quant.go), built once
	// at Flatten/LoadFlat time and nil when the forest does not fit the
	// int16 code space. It is set only before the forest is shared (or
	// cleared by DropQuant under the learner's install lock), so readers
	// need no synchronization.
	quant *QuantForest
}

// Flatten packs the forest into a FlatForest.
func (f *Forest) Flatten() *FlatForest {
	if len(f.trees) == 0 {
		return nil
	}
	nodes := 0
	for _, t := range f.trees {
		nodes += t.NumNodes()
	}
	ff := &FlatForest{
		nodes:     make([]tree.FlatNode, 0, nodes),
		roots:     make([]int32, 0, len(f.trees)),
		nFeatures: f.trees[0].NumFeatures(),
		oob:       f.oob,
	}
	for _, t := range f.trees {
		ff.roots = append(ff.roots, int32(len(ff.nodes)))
		ff.nodes = t.AppendFlat(ff.nodes)
	}
	ff.quant = quantizeForest(ff)
	return ff
}

// NumFeatures returns the width of the rows the forest classifies: a
// row must hold at least this many features.
func (ff *FlatForest) NumFeatures() int { return ff.nFeatures }

// NumTrees returns the ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.roots) }

// OOBError returns the out-of-bag misclassification estimate of the
// training run (NaN when no sample was ever out of bag).
func (ff *FlatForest) OOBError() float64 { return ff.oob }

// Nodes returns the node table and the index of each tree's root in
// it. Both are the forest's own storage, shared with every reader of
// the forest: the caller must not modify them.
func (ff *FlatForest) Nodes() ([]tree.FlatNode, []int32) { return ff.nodes, ff.roots }

// Quant returns the int16-quantized companion forest, or nil when the
// model did not quantize (code-space overflow, or the learner dropped
// it after a parity failure) — callers fall back to the float walk.
//
//selflearn:hotpath
func (ff *FlatForest) Quant() *QuantForest { return ff.quant }

// DropQuant discards the quantized companion, pinning this model to the
// float path. Only valid before the forest is shared across goroutines
// (the learner calls it under its install critical section, pre-publish).
func (ff *FlatForest) DropQuant() { ff.quant = nil }

// QuantParity reports whether the quantized companion reproduces the
// float forest's exact vote count on every row of X (vacuously true
// when there is no companion). The learner runs this over each model's
// training rows before publishing and drops the companion on any
// disagreement, so quantization can never change a served decision even
// if a future representation change broke the order-exactness argument.
func (ff *FlatForest) QuantParity(X [][]float64) bool {
	qf := ff.quant
	if qf == nil {
		return true
	}
	codes := make([]int16, qf.nFeatures)
	for _, x := range X {
		qf.QuantizeRowInto(codes, x)
		if qf.votes(codes) != ff.votes(x) {
			return false
		}
	}
	return true
}

// step advances one descent cursor by a single level. The child select
// is arithmetic — b materializes as a SETcc, so the near-random split
// outcome never reaches the branch predictor (a compare-and-jump here
// would mispredict roughly half the time). b = 1 exactly when
// x <= threshold, so NaN features fall right, matching the pointer
// tree's else-branch semantics.
//
//selflearn:hotpath
func step(x []float64, n tree.FlatNode, i int32) int32 {
	var b int32
	if x[n.Feature] <= n.Value {
		b = 1
	}
	return n.Right + (i+1-n.Right)*b
}

// votes counts the trees classifying x positive. len(x) must be at
// least NumFeatures.
//
// Two micro-optimizations carry the speedup over the pointer forest:
// the branch-free child select (see step), and walking four trees in
// lock-step — each tree's descent is a serial load→compare→load chain,
// but the four chains are independent, so their node loads overlap
// instead of serializing. At the leaf, Right is the precomputed 0/1
// vote and a finished cursor simply stops advancing.
//
//selflearn:hotpath
func (ff *FlatForest) votes(x []float64) int {
	nodes := ff.nodes
	roots := ff.roots
	votes := int32(0)
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		i0, i1, i2, i3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
		for n0.Feature >= 0 || n1.Feature >= 0 || n2.Feature >= 0 || n3.Feature >= 0 {
			if n0.Feature >= 0 {
				i0 = step(x, n0, i0)
				n0 = nodes[i0]
			}
			if n1.Feature >= 0 {
				i1 = step(x, n1, i1)
				n1 = nodes[i1]
			}
			if n2.Feature >= 0 {
				i2 = step(x, n2, i2)
				n2 = nodes[i2]
			}
			if n3.Feature >= 0 {
				i3 = step(x, n3, i3)
				n3 = nodes[i3]
			}
		}
		votes += n0.Right + n1.Right + n2.Right + n3.Right
	}
	for ; t < len(roots); t++ {
		i := roots[t]
		n := nodes[i]
		for n.Feature >= 0 {
			i = step(x, n, i)
			n = nodes[i]
		}
		votes += n.Right
	}
	return int(votes)
}

// Predict returns the majority-vote class for x. It allocates nothing.
//
//selflearn:hotpath
func (ff *FlatForest) Predict(x []float64) bool {
	return 2*ff.votes(x) >= len(ff.roots)
}

// smallBatch is the batch size up to which PredictBatchInto keeps its
// vote tally on the stack; the serving path classifies one window at a
// time and must stay allocation-free.
const smallBatch = 64

// parallelWork is the rows×trees product beyond which PredictBatchInto
// fans the tree loop out across GOMAXPROCS goroutines.
const parallelWork = 1 << 15

// PredictBatchInto classifies every row of X into dst, which must be at
// least len(X) long, and returns dst[:len(X)]. The walk is tree-major —
// each tree's contiguous node block stays cache-resident while it scores
// the whole batch — and large batches are parallelized across trees.
// Small batches (up to 64 rows) allocate nothing.
//
//selflearn:hotpath
func (ff *FlatForest) PredictBatchInto(dst []bool, X [][]float64) []bool {
	dst = dst[:len(X)]
	if len(X) == 0 {
		return dst
	}
	var stack [smallBatch]int32
	var votes []int32
	if len(X) <= smallBatch {
		votes = stack[:len(X)]
		for i := range votes {
			votes[i] = 0
		}
	} else {
		votes = make([]int32, len(X)) //selflearn:alloc-ok large-batch spill; batches up to smallBatch use the stack, per the doc comment
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 && len(X)*len(ff.roots) >= parallelWork {
		ff.parallelVotes(votes, X, procs)
	} else {
		ff.treeVotes(votes, X, 0, len(ff.roots))
	}
	nTrees := int32(len(ff.roots))
	for i, v := range votes {
		dst[i] = 2*v >= nTrees
	}
	return dst
}

// treeVotes accumulates votes for trees [lo, hi) over every row of X,
// tree-major so each tree's node block stays cache-resident across the
// whole batch.
//
//selflearn:hotpath
func (ff *FlatForest) treeVotes(votes []int32, X [][]float64, lo, hi int) {
	nodes := ff.nodes
	for t := lo; t < hi; t++ {
		root := ff.roots[t]
		r := 0
		// Four rows descend the tree in lock-step: independent chains,
		// overlapping node loads — the row-wise analog of votes().
		for ; r+4 <= len(X); r += 4 {
			x0, x1, x2, x3 := X[r], X[r+1], X[r+2], X[r+3]
			i0, i1, i2, i3 := root, root, root, root
			n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
			for n0.Feature >= 0 || n1.Feature >= 0 || n2.Feature >= 0 || n3.Feature >= 0 {
				if n0.Feature >= 0 {
					i0 = step(x0, n0, i0)
					n0 = nodes[i0]
				}
				if n1.Feature >= 0 {
					i1 = step(x1, n1, i1)
					n1 = nodes[i1]
				}
				if n2.Feature >= 0 {
					i2 = step(x2, n2, i2)
					n2 = nodes[i2]
				}
				if n3.Feature >= 0 {
					i3 = step(x3, n3, i3)
					n3 = nodes[i3]
				}
			}
			votes[r] += n0.Right
			votes[r+1] += n1.Right
			votes[r+2] += n2.Right
			votes[r+3] += n3.Right
		}
		for ; r < len(X); r++ {
			x := X[r]
			i := root
			n := nodes[i]
			for n.Feature >= 0 {
				i = step(x, n, i)
				n = nodes[i]
			}
			votes[r] += n.Right
		}
	}
}

// parallelVotes splits the tree range across workers, each tallying into
// its own slice, then reduces. Vote counts are integers, so the merge
// order cannot perturb results.
//
//selflearn:alloc-ok fan-out only engages past parallelWork rows×trees, where goroutine and partial-slice cost is amortized
func (ff *FlatForest) parallelVotes(votes []int32, X [][]float64, procs int) {
	nTrees := len(ff.roots)
	if procs > nTrees {
		procs = nTrees
	}
	partials := make([][]int32, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		lo := w * nTrees / procs
		hi := (w + 1) * nTrees / procs
		part := make([]int32, len(X))
		partials[w] = part
		go func(part []int32, lo, hi int) {
			defer wg.Done()
			ff.treeVotes(part, X, lo, hi)
		}(part, lo, hi)
	}
	wg.Wait()
	for _, part := range partials {
		for i, v := range part {
			votes[i] += v
		}
	}
}
