package forest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// randomSet draws a training set whose labels depend on a noisy linear
// rule, producing trees of realistic depth.
func randomSet(rng *rand.Rand, n, nf int) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		row := make([]float64, nf)
		var s float64
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j] * float64(j%3)
		}
		X[i] = row
		y[i] = s+0.5*rng.NormFloat64() > 0
	}
	return X, y
}

func trainedPair(t testing.TB, seed int64, n, nf, trees int) (*Forest, *FlatForest, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X, y := randomSet(rng, n, nf)
	f, err := Train(X, y, Config{NumTrees: trees, MaxDepth: 10, MinLeaf: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := randomSet(rng, 512, nf)
	return f, f.Flatten(), probe
}

func TestFlattenEquivalence(t *testing.T) {
	for _, tc := range []struct{ n, nf, trees int }{
		{60, 4, 3},
		{200, 10, 25},
		{300, 17, 50},
	} {
		t.Run(fmt.Sprintf("n=%d_nf=%d_trees=%d", tc.n, tc.nf, tc.trees), func(t *testing.T) {
			f, ff, probe := trainedPair(t, int64(tc.n), tc.n, tc.nf, tc.trees)
			if len(ff.roots) != f.NumTrees() {
				t.Fatalf("NumTrees %d vs %d", len(ff.roots), f.NumTrees())
			}
			if ff.nFeatures != tc.nf {
				t.Fatalf("NumFeatures = %d, want %d", ff.nFeatures, tc.nf)
			}
			if ff.oob != f.OOBError() {
				t.Fatalf("OOBError %g vs %g", ff.oob, f.OOBError())
			}
			for i, x := range probe {
				if ff.Predict(x) != f.Predict(x) {
					t.Fatalf("row %d: flat Predict diverges", i)
				}
				if p := float64(ff.votes(x)) / float64(len(ff.roots)); p != f.Prob(x) {
					t.Fatalf("row %d: flat Prob %g vs %g", i, p, f.Prob(x))
				}
			}
			want := f.PredictBatch(probe)
			got := ff.PredictBatchInto(make([]bool, len(probe)), probe)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("PredictBatch row %d diverges", i)
				}
			}
		})
	}
}

// TestFlatPredictBatchParallel drives a batch large enough to cross the
// goroutine fan-out threshold and checks it against per-row Predict.
func TestFlatPredictBatchParallel(t *testing.T) {
	f, ff, _ := trainedPair(t, 7, 400, 12, 64)
	rng := rand.New(rand.NewSource(99))
	probe, _ := randomSet(rng, 4096, 12)
	if len(probe)*len(ff.roots) < parallelWork {
		t.Fatalf("batch too small to exercise the parallel path")
	}
	got := ff.PredictBatchInto(make([]bool, len(probe)), probe)
	for i, x := range probe {
		if got[i] != f.Predict(x) {
			t.Fatalf("parallel batch row %d diverges", i)
		}
	}
}

// TestFlatSerializationRoundTrip proves the flat and pointer
// representations interoperate through the shared JSON checkpoint
// format in every direction.
func TestFlatSerializationRoundTrip(t *testing.T) {
	f, ff, probe := trainedPair(t, 3, 150, 8, 20)

	agree := func(name string, predict func(x []float64) bool) {
		t.Helper()
		for i, x := range probe {
			if predict(x) != f.Predict(x) {
				t.Fatalf("%s: row %d diverges from the original forest", name, i)
			}
		}
	}

	// Flat → JSON → flat.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ff); err != nil {
		t.Fatal(err)
	}
	ff2, err := LoadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	agree("flat->flat", ff2.Predict)
	if ff2.oob != ff.oob {
		t.Fatalf("OOBError lost in round trip: %g vs %g", ff2.oob, ff.oob)
	}

	// Pointer → JSON → flat.
	buf.Reset()
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ff3, err := LoadFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	agree("pointer->flat", ff3.Predict)

	// Flat → JSON → pointer.
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(ff); err != nil {
		t.Fatal(err)
	}
	fp, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	agree("flat->pointer", fp.Predict)
}

func TestFlatPredictAllocs(t *testing.T) {
	_, ff, probe := trainedPair(t, 11, 200, 10, 30)
	x := probe[0]
	if allocs := testing.AllocsPerRun(200, func() { ff.Predict(x) }); allocs != 0 {
		t.Fatalf("FlatForest.Predict allocates %.1f objects/op, want 0", allocs)
	}
	dst := make([]bool, smallBatch)
	batch := probe[:smallBatch]
	if allocs := testing.AllocsPerRun(100, func() { ff.PredictBatchInto(dst, batch) }); allocs != 0 {
		t.Fatalf("PredictBatchInto allocates %.1f objects/op on a small batch, want 0", allocs)
	}
}

// BenchmarkPredict contrasts the pointer forest against its flat form
// on the single-window path the serving loop runs per hop. The training
// set is sized like a serving retrain (the learner fits on up to an
// hour of buffered rows), so tree size — and therefore memory layout —
// matches what production inference walks.
func BenchmarkPredict(b *testing.B) {
	f, ff, probe := trainedPair(b, 42, 3600, 20, 50)
	b.Run("pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Predict(probe[i%len(probe)])
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ff.Predict(probe[i%len(probe)])
		}
	})
}

// BenchmarkPredictBatch measures the tree-major batch path at a size
// that stays sequential and one that fans out across goroutines.
func BenchmarkPredictBatch(b *testing.B) {
	f, ff, _ := trainedPair(b, 42, 400, 20, 50)
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{64, 4096} {
		probe, _ := randomSet(rng, rows, 20)
		dst := make([]bool, rows)
		b.Run(fmt.Sprintf("pointer/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.PredictBatch(probe)
			}
		})
		b.Run(fmt.Sprintf("flat/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ff.PredictBatchInto(dst, probe)
			}
		})
	}
}
