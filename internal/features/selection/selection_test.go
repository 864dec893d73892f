package selection

import (
	"math/rand"
	"testing"
)

// syntheticData builds rows where feature 0 separates the classes
// strongly, feature 1 weakly, and the rest are noise.
func syntheticData(n, nf int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	labels := make([]bool, n)
	for i := range X {
		labels[i] = i%2 == 0
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		if labels[i] {
			row[0] += 6 // strong separation
			if nf > 1 {
				row[1] += 1.5 // weak separation
			}
		}
		X[i] = row
	}
	return X, labels
}

func TestFisherScoreSeparation(t *testing.T) {
	X, labels := syntheticData(400, 3, 1)
	col := func(f int) []float64 {
		out := make([]float64, len(X))
		for i := range X {
			out[i] = X[i][f]
		}
		return out
	}
	s0, err := FisherScore(col(0), labels)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := FisherScore(col(2), labels)
	if err != nil {
		t.Fatal(err)
	}
	if s0 < 10*s2 {
		t.Errorf("strong feature score %g should dwarf noise %g", s0, s2)
	}
}

func TestFisherScoreErrors(t *testing.T) {
	if _, err := FisherScore([]float64{1, 2}, []bool{true}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FisherScore([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("single-class labels should fail")
	}
}

func TestFisherScoreDegenerate(t *testing.T) {
	s, err := FisherScore([]float64{3, 3, 3, 3}, []bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("constant feature should score 0, got %g", s)
	}
}

func TestBackwardEliminationRanksInformativeFirst(t *testing.T) {
	X, labels := syntheticData(600, 6, 2)
	rank, err := BackwardElimination(X, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 6 {
		t.Fatalf("rank length %d", len(rank))
	}
	if rank[0] != 0 {
		t.Errorf("most relevant should be feature 0, got %d (rank %v)", rank[0], rank)
	}
	if rank[1] != 1 {
		t.Errorf("second most relevant should be feature 1, got %d (rank %v)", rank[1], rank)
	}
	seen := map[int]bool{}
	for _, f := range rank {
		if seen[f] {
			t.Fatalf("rank %v contains duplicates", rank)
		}
		seen[f] = true
	}
}

func TestBackwardEliminationErrors(t *testing.T) {
	if _, err := BackwardElimination(nil, nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := BackwardElimination([][]float64{{1}}, []bool{true, false}); err == nil {
		t.Error("row/label mismatch should fail")
	}
	if _, err := BackwardElimination([][]float64{{1, 2}, {1}}, []bool{true, false}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

func TestRedundantCopyEliminatedEarly(t *testing.T) {
	// Feature 2 is a near-copy of the informative feature 0; the
	// relevance-minus-redundancy criterion should rank the duplicate
	// below the weaker-but-complementary feature 1.
	rng := rand.New(rand.NewSource(7))
	n := 600
	X := make([][]float64, n)
	labels := make([]bool, n)
	for i := range X {
		labels[i] = i%2 == 0
		f0 := rng.NormFloat64()
		f1 := rng.NormFloat64()
		if labels[i] {
			f0 += 5
			f1 += 2.5
		}
		dup := f0 + 0.01*rng.NormFloat64()
		noise := rng.NormFloat64()
		X[i] = []float64{f0, f1, dup, noise}
	}
	rank, err := BackwardElimination(X, labels)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, f := range rank {
		pos[f] = i
	}
	// One of the twins {0, 2} must top the ranking; the other must fall
	// below the complementary feature 1.
	lo, hi := pos[0], pos[2]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo != 0 {
		t.Errorf("one duplicate should rank first, got rank %v", rank)
	}
	if hi < pos[1] {
		t.Errorf("the redundant twin (rank position %d) should fall below feature 1 (position %d): %v",
			hi, pos[1], rank)
	}
}

func TestSingleFeature(t *testing.T) {
	X := [][]float64{{1}, {5}, {1.2}, {5.2}}
	labels := []bool{false, true, false, true}
	rank, err := BackwardElimination(X, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 1 || rank[0] != 0 {
		t.Errorf("rank = %v", rank)
	}
}
