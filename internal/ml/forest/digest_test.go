package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// learnerSet builds a training set shaped like the serve learner's
// self-labeled rows (15 min of 1 s windows after Algorithm 1 and the
// 1:3 negative subsampling): 127 rows × 10 features, about a quarter
// positive. Every third column is rounded to halves, so values tie
// heavily, and every ninth row repeats an earlier one.
func learnerSet(seed int64) ([][]float64, []bool) {
	const n, nf = 127, 10
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 0, n)
	y := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		if i%9 == 8 {
			j := rng.Intn(len(X))
			X = append(X, append([]float64(nil), X[j]...))
			y = append(y, y[j])
			continue
		}
		pos := i%4 == 0
		row := make([]float64, nf)
		for f := range row {
			v := rng.NormFloat64()
			if pos && f%2 == 0 {
				v += 1.5
			}
			if f%3 == 1 {
				v = math.Round(2*v) / 2
			}
			row[f] = v
		}
		X = append(X, row)
		y = append(y, pos)
	}
	return X, y
}

// trainDigest trains one forest per seed and hashes, in seed order, the
// flat checkpoint bytes, the float bits of the importances and the OOB
// error, and whether the quantized companion survives QuantParity on
// the training rows. It also reports how many of the forests had a NaN
// OOB error.
func trainDigest(t *testing.T, X [][]float64, y []bool, cfg Config, seeds int) (string, int) {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	nanOOB := 0
	for s := 1; s <= seeds; s++ {
		cfg.Seed = int64(s)
		f, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flat := f.Flatten()
		js, err := flat.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		for _, v := range f.Importances() {
			put(v)
		}
		put(f.OOBError())
		if math.IsNaN(f.OOBError()) {
			nanOOB++
		}
		if flat.QuantParity(X) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nanOOB
}

// TestTrainPinnedDigests pins what training produces, bit for bit:
// checkpoints, importances, OOB errors and quantized parity over ten
// seeds per case. The digests were recorded from the trainer that sorts
// each candidate feature at every node. A faster trainer must grow the
// same trees from the same seeds, so it must reproduce them.
func TestTrainPinnedDigests(t *testing.T) {
	learnX, learnY := learnerSet(1)
	blobX, blobY := blobs(200, 2, 11)
	tinyX := [][]float64{{0, 1}, {1, 0}, {2, 2}}
	tinyY := []bool{true, false, true}

	def := DefaultConfig()
	unbounded := def
	unbounded.NumTrees, unbounded.MaxDepth, unbounded.MinLeaf = 20, 0, 1
	shallow := def
	shallow.NumTrees, shallow.MaxDepth, shallow.MinLeaf = 20, 3, 5
	allFeats := def
	allFeats.NumTrees = 20
	single := def
	single.NumTrees = 1

	cases := []struct {
		name string
		X    [][]float64
		y    []bool
		cfg  Config
		want string
	}{
		{"learner/default", learnX, learnY, def,
			"f8fa2e0671b1b0f181f844dc3514c24cee92efdb527da8ab8f3876e11a4a095a"},
		{"learner/unbounded-minleaf1", learnX, learnY, unbounded,
			"c59900db69033d3e8cd1be870351e8d4a5e21f5b78afd23863bcf2d109d7648c"},
		{"learner/depth3-minleaf5", learnX, learnY, shallow,
			"83320f92e73bf409842d905d836120eace146c231b8ac9baf486a8ed0fd257a9"},
		{"learner/all-features", learnX, learnY, withSubset(allFeats, len(learnX[0])),
			"42cc4ce57efb92d98d75b5849dd0516ad5c933d4b96cd6a2dc24955ca18d788f"},
		{"blobs/default", blobX, blobY, def,
			"8bf8f9788db61fbaa864dd9b497a93440f473e12beeb4867ddea78038e74a489"},
		{"blobs/unbounded-minleaf1", blobX, blobY, unbounded,
			"7cc0b1443222e4724aa8ccd959fe843f5ff4f1b73338434d6a5e90b30f539a05"},
		{"blobs/depth3-minleaf5", blobX, blobY, shallow,
			"e04b9c6504f75e0e31e66f3960f350e2e46cd9e5f8ddaf0b289d1e899e7f3d8c"},
		{"blobs/all-features", blobX, blobY, withSubset(allFeats, len(blobX[0])),
			"ca0297f84128767a4d107fdb53e2f14d24756abe7eebc4a94ed25678a1513489"},
		{"tiny/one-tree", tinyX, tinyY, single,
			"527583e3491a99dcb6b6e04f7ea58a429f96f04d6f2769eb8db9adeee4365708"},
	}
	for _, c := range cases {
		got, nanOOB := trainDigest(t, c.X, c.y, c.cfg, 10)
		if got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
		if c.name == "tiny/one-tree" && nanOOB == 0 {
			t.Errorf("%s: no seed left every row in bag; the NaN OOB path is uncovered", c.name)
		}
	}
}

func withSubset(cfg Config, n int) Config {
	cfg.FeatureSubset = n
	return cfg
}
