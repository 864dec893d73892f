package forest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"selflearn/internal/ml/tree"
)

func TestQuantNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(tree.QuantNode{}); s != 8 {
		t.Fatalf("QuantNode is %d bytes, want 8", s)
	}
}

// quantProbe widens a random probe set with the inputs quantization is
// most likely to get wrong: exact node thresholds (the x == t boundary
// must still go left), their neighboring floats, NaN and ±Inf.
func quantProbe(rng *rand.Rand, ff *FlatForest, base [][]float64) [][]float64 {
	probe := append([][]float64(nil), base...)
	nf := ff.nFeatures
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for _, n := range ff.nodes {
		if n.Feature < 0 {
			continue
		}
		for _, v := range []float64{n.Value, math.Nextafter(n.Value, math.Inf(1)), math.Nextafter(n.Value, math.Inf(-1))} {
			row := make([]float64, nf)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			row[n.Feature] = v
			probe = append(probe, row)
		}
		if len(probe) > 4000 {
			break
		}
	}
	for _, sp := range specials {
		row := make([]float64, nf)
		for j := range row {
			row[j] = sp
		}
		probe = append(probe, row)
	}
	return probe
}

func TestQuantParityExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, nf, trees int }{
		{60, 4, 3},
		{200, 10, 25},
		{300, 17, 50},
		{120, 6, 5}, // odd tree count exercises the lock-step tail
	} {
		t.Run(fmt.Sprintf("n=%d_nf=%d_trees=%d", tc.n, tc.nf, tc.trees), func(t *testing.T) {
			_, ff, base := trainedPair(t, int64(tc.n)+7, tc.n, tc.nf, tc.trees)
			qf := ff.Quant()
			if qf == nil {
				t.Fatal("trained forest failed to quantize")
			}
			if len(qf.roots) != len(ff.roots) || len(qf.nodes) != len(ff.nodes) || qf.NumFeatures() != ff.nFeatures {
				t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
					len(qf.roots), len(qf.nodes), qf.NumFeatures(),
					len(ff.roots), len(ff.nodes), ff.nFeatures)
			}
			rng := rand.New(rand.NewSource(99))
			probe := quantProbe(rng, ff, base)
			codes := make([]int16, qf.NumFeatures())
			for i, x := range probe {
				qf.QuantizeRowInto(codes, x)
				if got, want := qf.votes(codes), ff.votes(x); got != want {
					t.Fatalf("row %d: quant votes %d, float votes %d", i, got, want)
				}
				if qf.Predict(codes) != ff.Predict(x) {
					t.Fatalf("row %d: Predict diverges", i)
				}
			}
			if !ff.QuantParity(probe) {
				t.Fatal("QuantParity reports disagreement on parity-clean probe")
			}
		})
	}
}

func TestQuantPredictBatchMatchesFloat(t *testing.T) {
	_, ff, base := trainedPair(t, 41, 250, 10, 25)
	qf := ff.Quant()
	if qf == nil {
		t.Fatal("forest failed to quantize")
	}
	rng := rand.New(rand.NewSource(5))
	probe := quantProbe(rng, ff, base)
	// Cover the 4-row lock-step remainder and the stack/heap vote split.
	for _, nRows := range []int{1, 2, 3, 4, 5, 63, 64, 65, len(probe)} {
		rows := probe[:nRows]
		nf := qf.NumFeatures()
		codes := make([]int16, nRows*nf)
		for i, x := range rows {
			qf.QuantizeRowInto(codes[i*nf:(i+1)*nf], x)
		}
		got := qf.PredictBatchInto(make([]bool, nRows), codes, nRows)
		want := ff.PredictBatchInto(make([]bool, nRows), rows)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("nRows=%d row %d: batch decision diverges", nRows, i)
			}
		}
	}
}

func TestQuantSurvivesCheckpointRoundTrip(t *testing.T) {
	_, ff, probe := trainedPair(t, 17, 200, 10, 25)
	if ff.Quant() == nil {
		t.Fatal("forest failed to quantize")
	}
	data, err := ff.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	qf := loaded.Quant()
	if qf == nil {
		t.Fatal("checkpoint round-trip lost the quantized companion")
	}
	codes := make([]int16, qf.NumFeatures())
	for i, x := range probe {
		qf.QuantizeRowInto(codes, x)
		if qf.Predict(codes) != ff.Predict(x) {
			t.Fatalf("row %d: reloaded quant decision diverges", i)
		}
	}
}

func TestQuantOverflowFallsBack(t *testing.T) {
	// A degenerate single-feature "forest" with more distinct thresholds
	// than the int16 code space: one long right-spine tree per chunk.
	const cutCount = tree.MaxQuantCuts + 1
	ff := &FlatForest{nFeatures: 1}
	for c := 0; c < cutCount; {
		ff.roots = append(ff.roots, int32(len(ff.nodes)))
		for d := 0; d < 1024 && c < cutCount; d++ {
			right := int32(len(ff.nodes)) + 2
			ff.nodes = append(ff.nodes,
				tree.FlatNode{Feature: 0, Right: right, Value: float64(c)},
				tree.FlatNode{Feature: tree.LeafFeature, Right: 0, Value: 0})
			c++
		}
		ff.nodes = append(ff.nodes, tree.FlatNode{Feature: tree.LeafFeature, Right: 1, Value: 1})
	}
	if qf := quantizeForest(ff); qf != nil {
		t.Fatalf("quantized a forest with %d cuts on one feature", cutCount)
	}
	if !ff.QuantParity([][]float64{{0.5}}) {
		t.Fatal("QuantParity must be vacuously true without a companion")
	}
}

func TestQuantNaNThresholdRefused(t *testing.T) {
	ff := &FlatForest{
		nFeatures: 1,
		roots:     []int32{0},
		nodes: []tree.FlatNode{
			{Feature: 0, Right: 2, Value: math.NaN()},
			{Feature: tree.LeafFeature, Right: 1, Value: 1},
			{Feature: tree.LeafFeature, Right: 0, Value: 0},
		},
	}
	if quantizeForest(ff) != nil {
		t.Fatal("quantized a forest with a NaN threshold")
	}
}

// FuzzQuantParity drives arbitrary feature values (including NaN, ±Inf,
// subnormals — anything the fuzzer invents) through both walks of a
// trained forest and demands identical vote counts.
func FuzzQuantParity(f *testing.F) {
	_, ff, probe := trainedPair(f, 23, 200, 6, 15)
	qf := ff.Quant()
	if qf == nil {
		f.Fatal("forest failed to quantize")
	}
	for _, x := range probe[:8] {
		f.Add(x[0], x[1], x[2], x[3], x[4], x[5])
	}
	for _, n := range ff.nodes[:min(len(ff.nodes), 32)] {
		if n.Feature >= 0 {
			f.Add(n.Value, n.Value, n.Value, n.Value, n.Value, n.Value)
		}
	}
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), 0.0, math.SmallestNonzeroFloat64, -math.MaxFloat64)
	codes := make([]int16, qf.NumFeatures())
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		x := []float64{a, b, c, d, e, g}
		qf.QuantizeRowInto(codes, x)
		if got, want := qf.votes(codes), ff.votes(x); got != want {
			t.Fatalf("quant votes %d, float votes %d on %v", got, want, x)
		}
	})
}

func BenchmarkQuantPredictBatch(b *testing.B) {
	_, ff, probe := trainedPair(b, 77, 400, 10, 50)
	qf := ff.Quant()
	if qf == nil {
		b.Fatal("forest failed to quantize")
	}
	const nRows = 32
	nf := qf.NumFeatures()
	codes := make([]int16, nRows*nf)
	for i, x := range probe[:nRows] {
		qf.QuantizeRowInto(codes[i*nf:(i+1)*nf], x)
	}
	dst := make([]bool, nRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qf.PredictBatchInto(dst, codes, nRows)
	}
}

func BenchmarkFlatPredictBatch(b *testing.B) {
	_, ff, probe := trainedPair(b, 77, 400, 10, 50)
	rows := probe[:32]
	dst := make([]bool, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff.PredictBatchInto(dst, rows)
	}
}
