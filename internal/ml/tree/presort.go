package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Presort is a training set sorted once by every feature, the input
// every tree of a forest grows from. No node sorts: a tree keeps, per
// feature, the rows of its bootstrap sample in value order (filtered
// out of the presort in O(n·F)), a node is one segment of each of
// those lists, and a split partitions every list's segment stably into
// its children. A Presort and its scratch serve one training call; it
// is not safe for concurrent use.
type Presort struct {
	y     []bool
	n, nf int
	// order[f*n+k] is the row holding the k-th smallest value of
	// feature f, and sorted[f*n+k] is that value.
	order  []int32
	sorted []float64

	// Per-tree scratch, overwritten by every Grow.
	m    int   // in-bag rows: the length of each feature's list
	w    []int // w[r] is row r's multiplicity in the bootstrap sample
	wpos []int // w[r] when y[r], else 0
	// rows[b][f*m+k] is the k-th row of feature f's list and vals[b]
	// holds its value. A node at even depth reads buffer 0 and writes
	// its children's segments, at the same positions, into buffer 1;
	// at odd depth the other way round.
	rows [2][]int32
	vals [2][]float64
	left []int // per row, 1 if the split being applied sends it left, else 0
	perm []int
}

// NewPresort validates the training set and sorts each feature once.
// A NaN feature is an error: it has no place in the order a split
// threshold is drawn from. ±Inf order totally and are accepted.
func NewPresort(X [][]float64, y []bool) (*Presort, error) {
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
		for f, v := range r {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("tree: NaN feature at row %d, column %d", i, f)
			}
		}
	}
	n := len(X)
	p := &Presort{
		y: y, n: n, nf: nf,
		order:  make([]int32, nf*n),
		sorted: make([]float64, nf*n),
		w:      make([]int, n),
		wpos:   make([]int, n),
		rows:   [2][]int32{make([]int32, nf*n), make([]int32, nf*n)},
		vals:   [2][]float64{make([]float64, nf*n), make([]float64, nf*n)},
		left:   make([]int, n),
		perm:   make([]int, nf),
	}
	type entry struct {
		v float64
		r int32
	}
	col := make([]entry, n)
	for f := 0; f < nf; f++ {
		for r, x := range X {
			col[r] = entry{x[f], int32(r)}
		}
		slices.SortFunc(col, func(a, b entry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		for k, e := range col {
			p.order[f*n+k] = e.r
			p.sorted[f*n+k] = e.v
		}
	}
	return p, nil
}

// Grow grows a tree on the bootstrap sample that holds row r of the
// presorted set mult[r] times. The tree, its importances and the
// features drawn from cfg.Rng are those of Train on that sample with
// every copy of a row written out: a split is scored only between
// distinct values, where the multiplicities sum to the same integer
// counts whatever the order of the copies.
func (p *Presort) Grow(mult []int, cfg Config) (*Tree, error) {
	if len(mult) != p.n {
		return nil, fmt.Errorf("tree: %d multiplicities for %d samples", len(mult), p.n)
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.FeatureSubset > 0 && cfg.Rng == nil {
		return nil, errors.New("tree: FeatureSubset requires an Rng")
	}
	if cfg.FeatureSubset > p.nf {
		cfg.FeatureSubset = p.nf
	}
	total, pos, m := 0, 0, 0
	for r, k := range mult {
		if k < 0 {
			return nil, fmt.Errorf("tree: negative multiplicity %d for row %d", k, r)
		}
		p.w[r], p.wpos[r] = k, 0
		if p.y[r] {
			p.wpos[r] = k
		}
		if k > 0 {
			m++
			total += k
			pos += p.wpos[r]
		}
	}
	if total == 0 {
		return nil, errors.New("tree: empty training set")
	}
	p.m = m
	// Filter each feature's presorted order down to the in-bag rows. The
	// write is unconditional and only an in-bag row advances j, so the
	// loop does not branch on the bootstrap draw; a trailing out-of-bag
	// row lands at (f+1)*m, which the next feature overwrites or, after
	// the last, lies past every list (m < n whenever a row is out of bag).
	rows, vals := p.rows[0], p.vals[0]
	for f := 0; f < p.nf; f++ {
		order := p.order[f*p.n : (f+1)*p.n]
		sorted := p.sorted[f*p.n : (f+1)*p.n]
		j := f * m
		for k, r := range order {
			rows[j], vals[j] = r, sorted[k]
			j += min(p.w[r], 1)
		}
	}
	t := &Tree{nFeatures: p.nf, importances: make([]float64, p.nf), total: total}
	t.root = p.grow(t, 0, m, total, pos, 0, cfg)
	return t, nil
}

// stops reports whether a node of n samples, pos of them positive, at
// depth becomes a leaf before any split is scored.
func stops(pos, n, depth int, cfg Config) bool {
	return pos == 0 || pos == n ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		n < 2*cfg.MinLeaf
}

func newLeaf(pos, n int) *node {
	return &node{leaf: true, positive: 2*pos >= n, prob: float64(pos) / float64(n)}
}

// grow grows the node holding positions [lo, hi) of every feature's
// list: n samples counted with multiplicity, pos of them positive.
func (p *Presort) grow(t *Tree, lo, hi, n, pos, depth int, cfg Config) *node {
	t.nodes++
	if stops(pos, n, depth, cfg) {
		return newLeaf(pos, n)
	}
	feats := p.candidateFeatures(cfg)
	bestFeat, bestThr, bestScore := -1, 0.0, math.Inf(1)
	parentGini := gini(pos, n)
	m, b := p.m, depth&1
	for _, f := range feats {
		rows := p.rows[b][f*m+lo : f*m+hi]
		vals := p.vals[b][f*m+lo : f*m+hi]
		// Sweep split positions; maintain left-class counts.
		leftPos, leftN := 0, 0
		for j := 0; j < len(rows)-1; j++ {
			r := rows[j]
			leftN += p.w[r]
			leftPos += p.wpos[r]
			if vals[j] == vals[j+1] {
				continue // cannot split between equal values
			}
			rightN := n - leftN
			if rightN < cfg.MinLeaf {
				break // rightN only shrinks from here
			}
			if leftN < cfg.MinLeaf {
				continue
			}
			rightPos := pos - leftPos
			score := (float64(leftN)*gini(leftPos, leftN) +
				float64(rightN)*gini(rightPos, rightN)) / float64(n)
			if score < bestScore {
				bestScore = score
				bestFeat = f
				bestThr = (vals[j] + vals[j+1]) / 2
			}
		}
	}
	if bestFeat < 0 || bestScore >= parentGini-1e-12 {
		return newLeaf(pos, n)
	}
	// Apply the split as prediction does, value <= threshold, not at the
	// sweep position: a midpoint that rounds onto the upper value sends
	// that value left, one that overflows to ±Inf can empty a side, and
	// the NaN midpoint of -Inf and +Inf empties the left. On the sorted
	// list the left side is a prefix.
	rows := p.rows[b][bestFeat*m+lo : bestFeat*m+hi]
	vals := p.vals[b][bestFeat*m+lo : bestFeat*m+hi]
	nl, leftN, leftPos := 0, 0, 0
	for k, r := range rows {
		if vals[k] <= bestThr {
			p.left[r] = 1
			nl++
			leftN += p.w[r]
			leftPos += p.wpos[r]
		} else {
			p.left[r] = 0
		}
	}
	if nl == 0 || nl == len(rows) {
		return newLeaf(pos, n)
	}
	// Record the impurity decrease this split achieves, weighted by the
	// fraction of training samples reaching the node.
	rightN, rightPos := n-leftN, pos-leftPos
	decrease := parentGini -
		(float64(leftN)*gini(leftPos, leftN)+
			float64(rightN)*gini(rightPos, rightN))/float64(n)
	t.importances[bestFeat] += decrease * float64(n) / float64(t.total)

	mid := lo + nl
	if !stops(leftPos, leftN, depth+1, cfg) || !stops(rightPos, rightN, depth+1, cfg) {
		for f := 0; f < p.nf; f++ {
			p.partition(b, f*m+lo, f*m+hi, nl)
		}
	}
	nd := &node{feature: bestFeat, threshold: bestThr}
	nd.left = p.grow(t, lo, mid, leftN, leftPos, depth+1, cfg)
	nd.right = p.grow(t, mid, hi, rightN, rightPos, depth+1, cfg)
	return nd
}

// partition writes positions [lo, hi) of buffer b into the other
// buffer with the nl rows the split sends left first, each side keeping
// its value order.
func (p *Presort) partition(b, lo, hi, nl int) {
	src, srcVals := p.rows[b][lo:hi], p.vals[b][lo:hi]
	dst, dstVals := p.rows[1-b][lo:hi], p.vals[1-b][lo:hi]
	l, r := 0, nl
	for k, row := range src {
		// Branch-free: a split is close to a coin flip per row.
		d := p.left[row]
		i := r ^ ((l ^ r) & -d) // l if d == 1, else r
		dst[i], dstVals[i] = row, srcVals[k]
		l += d
		r += 1 - d
	}
}

// candidateFeatures draws the features a node scores: all of them in
// order, or a partial Fisher–Yates draw of FeatureSubset distinct ones.
func (p *Presort) candidateFeatures(cfg Config) []int {
	perm := p.perm
	for i := range perm {
		perm[i] = i
	}
	if cfg.FeatureSubset <= 0 || cfg.FeatureSubset >= p.nf {
		return perm
	}
	for i := 0; i < cfg.FeatureSubset; i++ {
		j := i + cfg.Rng.Intn(p.nf-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:cfg.FeatureSubset]
}
