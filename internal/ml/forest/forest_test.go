package forest

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func blobs(n int, sep float64, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		y[i] = i%2 == 0
		base := 0.0
		if y[i] {
			base = sep
		}
		X[i] = []float64{
			base + rng.NormFloat64(),
			base + rng.NormFloat64(),
			rng.NormFloat64(), // noise feature
		}
	}
	return X, y
}

func accuracy(f *Forest, X [][]float64, y []bool) float64 {
	preds := f.PredictBatch(X)
	ok := 0
	for i := range preds {
		if preds[i] == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(y))
}

func TestTrainAndPredict(t *testing.T) {
	X, y := blobs(600, 4, 1)
	f, err := Train(X[:400], y[:400], DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 50 {
		t.Errorf("NumTrees = %d", f.NumTrees())
	}
	if acc := accuracy(f, X[400:], y[400:]); acc < 0.92 {
		t.Errorf("held-out accuracy %g", acc)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	X, y := blobs(200, 3, 2)
	cfg := DefaultConfig()
	a, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same seed should give identical forests")
		}
	}
}

func TestOOBErrorReasonable(t *testing.T) {
	X, y := blobs(500, 4, 3)
	f, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oob := f.OOBError()
	if math.IsNaN(oob) || oob > 0.15 {
		t.Errorf("OOB error %g too high for well-separated blobs", oob)
	}
}

func TestProbRange(t *testing.T) {
	X, y := blobs(300, 4, 4)
	f, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pPos := f.Prob([]float64{4, 4, 0})
	pNeg := f.Prob([]float64{0, 0, 0})
	if pPos <= pNeg {
		t.Errorf("Prob ordering wrong: %g vs %g", pPos, pNeg)
	}
	if pPos < 0 || pPos > 1 {
		t.Errorf("Prob out of range: %g", pPos)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty set should fail")
	}
	X, y := blobs(10, 2, 5)
	if _, err := Train(X, y[:5], DefaultConfig()); err == nil {
		t.Error("label mismatch should fail")
	}
	bad := DefaultConfig()
	bad.NumTrees = 0
	if _, err := Train(X, y, bad); err == nil {
		t.Error("zero trees should fail")
	}
}

func TestSingleTreeForest(t *testing.T) {
	X, y := blobs(200, 5, 6)
	cfg := DefaultConfig()
	cfg.NumTrees = 1
	f, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 1 {
		t.Error("should have exactly one tree")
	}
	if acc := accuracy(f, X, y); acc < 0.85 {
		t.Errorf("single-tree accuracy %g", acc)
	}
}

func TestImportancesIdentifyInformativeFeatures(t *testing.T) {
	// Features 0 and 1 carry the class; feature 2 is noise.
	X, y := blobs(500, 4, 31)
	f, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importances()
	if len(imp) != 3 {
		t.Fatalf("importances length %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %g, want 1", sum)
	}
	if imp[2] > imp[0] || imp[2] > imp[1] {
		t.Errorf("noise feature ranked above informative ones: %v", imp)
	}
	if imp[0]+imp[1] < 0.8 {
		t.Errorf("informative features should dominate: %v", imp)
	}
}

func TestImbalancedData(t *testing.T) {
	// 10% positives: forest must still find the minority class region.
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []bool
	for i := 0; i < 500; i++ {
		pos := i%10 == 0
		base := 0.0
		if pos {
			base = 5
		}
		X = append(X, []float64{base + rng.NormFloat64(), base + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, pos)
	}
	f, err := Train(X, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Predict([]float64{5, 5, 0}) {
		t.Error("forest should detect the minority-class region")
	}
	if f.Predict([]float64{0, 0, 0}) {
		t.Error("majority region misclassified")
	}
}

func TestTrainRejectsNaN(t *testing.T) {
	X, y := blobs(20, 3, 9)
	X[10][2] = math.NaN()
	_, err := Train(X, y, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "row 10, column 2") {
		t.Fatalf("NaN at row 10, column 2: err %v, want one naming the cell", err)
	}
	X[10][2] = math.Inf(-1)
	if _, err := Train(X, y, DefaultConfig()); err != nil {
		t.Fatalf("-Inf is ordered and must train: %v", err)
	}
}

var trained *Forest

// BenchmarkTrain is the serve learner's retrain after a confirmed
// seizure: DefaultConfig's 50 trees on a learner-shaped set, cycling
// through eight seeds as successive retrains do.
func BenchmarkTrain(b *testing.B) {
	X, y := learnerSet(1)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i%8 + 1)
		f, err := Train(X, y, cfg)
		if err != nil {
			b.Fatal(err)
		}
		trained = f
	}
}
