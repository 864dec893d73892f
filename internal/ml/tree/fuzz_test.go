package tree

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzAlphabet is the value set fuzzed features draw from: signed
// zeros, infinities (whose midpoint is NaN, or ±Inf beside a finite
// value), the largest finite values (whose midpoint overflows), a pair
// of adjacent floats (whose midpoint rounds onto one of them) and
// small integers that repeat. NaN is rejected by Train and is not in
// it.
var fuzzAlphabet = [16]float64{
	math.Inf(-1), -math.MaxFloat64, -2, -1,
	math.Copysign(0, -1), 0, 5e-324, 0.5,
	1, math.Nextafter(1, 2), 1, 2,
	2, 3, math.MaxFloat64, math.Inf(1),
}

// fuzzCase is one decoded training problem: rows drawn mult[r] times.
type fuzzCase struct {
	X    [][]float64
	y    []bool
	mult []int
	cfg  Config
	seed int64
}

// decodeFuzzCase reads a case from data, taking 0 for any byte past
// the end. Layout: rows (1..64), features (1..6), MinLeaf (1..8),
// MaxDepth (0..7, 0 = unbounded), FeatureSubset (0..features), two
// seed bytes, then per row one alphabet index per feature and a byte
// whose bit 0 is the label and bits 1–2 the multiplicity (0..3).
func decodeFuzzCase(data []byte) fuzzCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%64
	nf := 1 + int(next())%6
	c := fuzzCase{cfg: Config{
		MinLeaf:  1 + int(next())%8,
		MaxDepth: int(next()) % 8,
	}}
	c.cfg.FeatureSubset = int(next()) % (nf + 1)
	c.seed = int64(next())<<8 | int64(next())
	for r := 0; r < n; r++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = fuzzAlphabet[next()%16]
		}
		b := next()
		c.X = append(c.X, row)
		c.y = append(c.y, b&1 == 1)
		c.mult = append(c.mult, int(b>>1)&3)
	}
	return c
}

// encodeFuzzCase is decodeFuzzCase's inverse for the seed corpus: vals
// holds alphabet indices row-major, and meta per row is label | mult<<1.
func encodeFuzzCase(nf, minLeaf, maxDepth, sub int, seed uint16, vals []byte, meta []byte) []byte {
	n := len(meta)
	data := []byte{byte(n - 1), byte(nf - 1), byte(minLeaf - 1), byte(maxDepth), byte(sub), byte(seed >> 8), byte(seed)}
	for r := 0; r < n; r++ {
		data = append(data, vals[r*nf:(r+1)*nf]...)
		data = append(data, meta[r])
	}
	return data
}

// preorder lists a tree's nodes root first, left subtree before right.
func preorder(n *node, out []*node) []*node {
	out = append(out, n)
	if !n.leaf {
		out = preorder(n.left, out)
		out = preorder(n.right, out)
	}
	return out
}

// FuzzTrainMatchesReference grows the presorted trainer on per-row
// multiplicities and the reference on the same bootstrap sample written
// out row by row (in a shuffled order), from two rngs with one seed,
// and requires the same tree bit for bit and the same rng state after.
func FuzzTrainMatchesReference(f *testing.F) {
	// Single-class nodes: every label positive.
	f.Add(encodeFuzzCase(2, 1, 0, 0, 1,
		[]byte{3, 8, 4, 9, 7, 11, 13, 2, 5, 14, 0, 15},
		[]byte{3, 3, 5, 7, 3, 3}))
	// MinLeaf above n/2: no split is admissible.
	f.Add(encodeFuzzCase(1, 4, 0, 0, 2,
		[]byte{1, 2, 3, 8, 11, 13},
		[]byte{2, 3, 2, 3, 2, 3}))
	// MaxDepth 1: one split at most, with a random feature subset.
	f.Add(encodeFuzzCase(3, 1, 1, 1, 3,
		[]byte{2, 8, 13, 3, 9, 11, 4, 10, 7, 8, 11, 1, 11, 12, 0, 13, 15, 5},
		[]byte{2, 3, 0, 5, 7, 1}))
	// An all-equal column beside ties, signed zeros and infinities.
	f.Add(encodeFuzzCase(3, 1, 0, 2, 4,
		[]byte{8, 4, 0, 8, 5, 15, 8, 4, 15, 8, 5, 0, 8, 9, 6, 8, 10, 7, 8, 14, 1, 8, 1, 14},
		[]byte{2, 5, 3, 4, 7, 2, 3, 6}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		var bootX [][]float64
		var bootY []bool
		for r, k := range c.mult {
			for ; k > 0; k-- {
				bootX = append(bootX, c.X[r])
				bootY = append(bootY, c.y[r])
			}
		}
		rand.New(rand.NewSource(c.seed+1)).Shuffle(len(bootX), func(i, j int) {
			bootX[i], bootX[j] = bootX[j], bootX[i]
			bootY[i], bootY[j] = bootY[j], bootY[i]
		})
		refRng, gotRng := rand.New(rand.NewSource(c.seed)), rand.New(rand.NewSource(c.seed))
		refCfg, gotCfg := c.cfg, c.cfg
		refCfg.Rng, gotCfg.Rng = refRng, gotRng

		p, err := NewPresort(c.X, c.y)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := p.Grow(c.mult, gotCfg)
		if len(bootX) == 0 {
			if gotErr == nil {
				t.Fatal("Grow accepted an empty bootstrap sample")
			}
			return
		}
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		ref, err := trainReference(bootX, bootY, refCfg)
		if err != nil {
			t.Fatal(err)
		}

		if got.NumNodes() != ref.NumNodes() {
			t.Fatalf("NumNodes %d, reference %d", got.NumNodes(), ref.NumNodes())
		}
		gn, rn := preorder(got.root, nil), preorder(ref.root, nil)
		if len(gn) != len(rn) {
			t.Fatalf("%d nodes in preorder, reference %d", len(gn), len(rn))
		}
		for i := range gn {
			g, r := gn[i], rn[i]
			if g.leaf != r.leaf || g.positive != r.positive ||
				math.Float64bits(g.prob) != math.Float64bits(r.prob) ||
				g.feature != r.feature ||
				math.Float64bits(g.threshold) != math.Float64bits(r.threshold) {
				t.Fatalf("preorder node %d: got %+v, reference %+v", i, *g, *r)
			}
		}
		gi, ri := got.Importances(), ref.Importances()
		for i := range gi {
			if math.Float64bits(gi[i]) != math.Float64bits(ri[i]) {
				t.Fatalf("importance %d: got %v, reference %v", i, gi[i], ri[i])
			}
		}
		if g, r := gotRng.Int63(), refRng.Int63(); g != r {
			t.Fatalf("next rng draw %d, reference %d: the trainers drew differently", g, r)
		}
	})
}
