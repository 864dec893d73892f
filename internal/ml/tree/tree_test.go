package tree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gaussianBlobs builds a two-blob binary dataset.
func gaussianBlobs(n int, sep float64, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		y[i] = i%2 == 0
		base := 0.0
		if y[i] {
			base = sep
		}
		X[i] = []float64{base + rng.NormFloat64(), base + rng.NormFloat64()}
	}
	return X, y
}

func accuracy(t *Tree, X [][]float64, y []bool) float64 {
	ok := 0
	for i := range X {
		if t.Predict(X[i]) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

// testConfig is a conservative single-tree configuration.
var testConfig = Config{MaxDepth: 12, MinLeaf: 2}

// depth returns the maximum depth below n (a leaf is depth 0).
func depth(n *node) int {
	if n.leaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func TestTrainSeparable(t *testing.T) {
	X, y := gaussianBlobs(400, 6, 1)
	tr, err := Train(X, y, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, X, y); acc < 0.98 {
		t.Errorf("training accuracy %g on separable blobs", acc)
	}
}

func TestGeneralization(t *testing.T) {
	X, y := gaussianBlobs(600, 4, 2)
	tr, err := Train(X[:400], y[:400], Config{MaxDepth: 6, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, X[400:], y[400:]); acc < 0.9 {
		t.Errorf("test accuracy %g", acc)
	}
}

func TestPureLeafShortCircuit(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	tr, err := Train(X, y, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("pure training set should produce a single leaf, got %d nodes", tr.NumNodes())
	}
	if !tr.Predict([]float64{99}) {
		t.Error("leaf should predict the pure class")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	X, y := gaussianBlobs(500, 1, 3) // overlapping blobs force deep growth
	tr, err := Train(X, y, Config{MaxDepth: 3, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := depth(tr.root); d > 3 {
		t.Errorf("depth %d exceeds MaxDepth 3", d)
	}
}

func TestMinLeafRespected(t *testing.T) {
	X, y := gaussianBlobs(100, 2, 4)
	tr, err := Train(X, y, Config{MaxDepth: 0, MinLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 20 on 100 samples the tree stays small.
	if tr.NumNodes() > 11 {
		t.Errorf("MinLeaf not limiting growth: %d nodes", tr.NumNodes())
	}
}

func TestConstantFeatures(t *testing.T) {
	// Unsplittable data must yield a majority-vote leaf, not loop.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []bool{true, true, false, true}
	tr, err := Train(X, y, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || !tr.Predict([]float64{1, 1}) {
		t.Error("constant features should produce a majority leaf")
	}
}

func TestErrors(t *testing.T) {
	if _, err := Train(nil, nil, testConfig); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := Train([][]float64{{1}}, []bool{true, false}, testConfig); err == nil {
		t.Error("label mismatch should fail")
	}
	if _, err := Train([][]float64{{}}, []bool{true}, testConfig); err == nil {
		t.Error("zero features should fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []bool{true, false}, testConfig); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := Train([][]float64{{1}, {2}}, []bool{true, false},
		Config{FeatureSubset: 1}); err == nil {
		t.Error("FeatureSubset without Rng should fail")
	}
}

func TestFeatureSubsetTraining(t *testing.T) {
	X, y := gaussianBlobs(300, 5, 5)
	tr, err := Train(X, y, Config{
		MaxDepth: 8, MinLeaf: 2, FeatureSubset: 1,
		Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, X, y); acc < 0.9 {
		t.Errorf("accuracy with feature subsetting %g", acc)
	}
}

func TestProbMonotonicWithClass(t *testing.T) {
	X, y := gaussianBlobs(400, 5, 6)
	tr, err := Train(X, y, Config{MaxDepth: 4, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	pPos := tr.Prob([]float64{5, 5})
	pNeg := tr.Prob([]float64{0, 0})
	if pPos <= pNeg {
		t.Errorf("Prob(positive region)=%g should exceed Prob(negative region)=%g", pPos, pNeg)
	}
	if pPos < 0 || pPos > 1 || pNeg < 0 || pNeg > 1 {
		t.Error("probabilities out of range")
	}
}

func TestNumFeatures(t *testing.T) {
	X, y := gaussianBlobs(50, 3, 8)
	tr, err := Train(X, y, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumFeatures() != 2 {
		t.Errorf("NumFeatures = %d", tr.NumFeatures())
	}
}

// TestTrainRejectsNaN: a NaN has no place in the sorted order. Under
// the per-node sort, these 20 rows with the NaN at row 10 trained to one
// leaf: a NaN threshold won the sweep and value <= NaN sent every row
// right. Train names the first NaN cell instead; ±Inf order totally and
// train.
func TestTrainRejectsNaN(t *testing.T) {
	X := make([][]float64, 20)
	y := make([]bool, 20)
	for i := range X {
		X[i] = []float64{float64(i), float64(i % 3)}
		y[i] = i >= 10
	}
	X[10][0] = math.NaN()
	_, err := Train(X, y, Config{MaxDepth: 3, MinLeaf: 1})
	if err == nil || !strings.Contains(err.Error(), "row 10, column 0") {
		t.Fatalf("NaN at row 10, column 0: err %v, want one naming the cell", err)
	}
	X[10][0] = math.Inf(1)
	tr, err := Train(X, y, Config{MaxDepth: 3, MinLeaf: 1})
	if err != nil {
		t.Fatalf("+Inf is ordered and must train: %v", err)
	}
	if tr.NumNodes() != 3 || tr.root.feature != 0 || tr.root.threshold != 10 {
		t.Errorf("with +Inf at row 10: %d nodes, root split on %d at %v; want 3 nodes split on 0 at 10",
			tr.NumNodes(), tr.root.feature, tr.root.threshold)
	}
}
