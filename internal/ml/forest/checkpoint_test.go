package forest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sameFlat reports how got differs from want: node for node to the
// bit, roots, width, OOB bits and the int16 companion.
func sameFlat(got, want *FlatForest) error {
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i, n := range got.nodes {
		w := want.nodes[i]
		if n.Feature != w.Feature || n.Right != w.Right || math.Float64bits(n.Value) != math.Float64bits(w.Value) {
			return fmt.Errorf("node %d = %+v, want %+v", i, n, w)
		}
	}
	switch {
	case !reflect.DeepEqual(got.roots, want.roots):
		return fmt.Errorf("roots %v, want %v", got.roots, want.roots)
	case got.nFeatures != want.nFeatures:
		return fmt.Errorf("%d features, want %d", got.nFeatures, want.nFeatures)
	case math.Float64bits(got.oob) != math.Float64bits(want.oob):
		return fmt.Errorf("OOB error %v, want %v", got.oob, want.oob)
	case !reflect.DeepEqual(got.quant, want.quant):
		return fmt.Errorf("quantized companion differs")
	}
	return nil
}

// sharedChildrenTree is a forest of one tree of depth+1 nodes whose
// splits each link both children to the next node: a decoder that
// followed the links would share every child and expand the tree to
// 2^(depth+1)-1 nodes. LoadFlat and the reference both refuse it.
func sharedChildrenTree(depth int) string {
	var b strings.Builder
	b.WriteString(`{"trees":[{"num_features":1,"nodes":[`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `{"leaf":false,"feature":0,"threshold":0.5,"left":%d,"right":%d},`, i+1, i+1)
	}
	b.WriteString(`{"leaf":true,"prob":1}]}],"oob_error":0}`)
	return b.String()
}

// Hand-written trees for the malformed inputs: a stump on feature 1 of
// two, and one on feature 15 of twenty.
const (
	stump2  = `{"num_features":2,"nodes":[{"leaf":false,"feature":1,"threshold":0.5,"left":1,"right":2},{"leaf":true},{"leaf":true,"prob":1}]}`
	stump20 = `{"num_features":20,"nodes":[{"leaf":false,"feature":15,"threshold":0.5,"left":1,"right":2},{"leaf":true},{"leaf":true,"prob":1}]}`
)

// The three inputs that crashed or exploded the pointer route LoadFlat
// used to take: Flatten's nil dereference, quantizeForest's index past
// the first tree's width, and 2^21-1 nodes from 1,069 bytes.
var (
	nullTree       = `{"trees":[null],"oob_error":0}`
	mixedWidths    = `{"trees":[` + stump2 + `,` + stump20 + `],"oob_error":0}`
	sharedChildren = sharedChildrenTree(20)
)

// malformed are checkpoints LoadFlat and the reference both refuse.
var malformed = []struct{ name, data string }{
	{"null tree", nullTree},
	{"mixed widths", mixedWidths},
	{"null later tree", `{"trees":[` + stump2 + `,null]}`},
	{"no trees", `{"trees":[],"oob_error":0}`},
	{"no trees key", `{"oob_error":0}`},
	{"no nodes", `{"trees":[{"num_features":2,"nodes":[]}]}`},
	{"no width", `{"trees":[{"nodes":[{"leaf":true}]}]}`},
	{"zero width", `{"trees":[{"num_features":0,"nodes":[{"leaf":true}]}]}`},
	{"feature past width", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"feature":1,"left":1,"right":2},{"leaf":true},{"leaf":true}]}]}`},
	{"negative feature", `{"trees":[{"num_features":2,"nodes":[{"leaf":false,"feature":-1,"left":1,"right":2},{"leaf":true},{"leaf":true}]}]}`},
	{"missing right child", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":1,"right":2},{"leaf":true}]}]}`},
	{"missing left child", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":1,"right":2}]}]}`},
	{"self link", `{"trees":[{"num_features":2,"nodes":[{"leaf":false,"feature":0,"threshold":1,"left":0,"right":0}]}]}`},
	{"dangling links", `{"trees":[{"num_features":2,"nodes":[{"leaf":false,"feature":0,"threshold":1,"left":5,"right":6}]}]}`},
	{"split is last", `{"trees":[{"num_features":2,"nodes":[{"leaf":true},{"leaf":false,"feature":0,"left":2,"right":3}]}]}`},
	{"shared children", sharedChildren},
	{"left link skips", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":2,"right":1},{"leaf":true},{"leaf":true}]}]}`},
	{"left link dangles", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":5,"right":2},{"leaf":true},{"leaf":true}]}]}`},
	{"right link skips", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":1,"right":3},{"leaf":true},{"leaf":true},{"leaf":true}]}]}`},
	{"right link dangles", `{"trees":[{"num_features":1,"nodes":[{"leaf":false,"left":1,"right":5},{"leaf":true},{"leaf":true}]}]}`},
	{"unlinked node", `{"trees":[{"num_features":1,"nodes":[{"leaf":true},{"leaf":true}]}]}`},
	{"garbage", `garbage`},
	{"empty", ``},
	{"truncated", `{"trees":[` + stump2},
	{"data after", `{"trees":[` + stump2 + `]} {}`},
	{"trailing comma", `{"trees":[` + stump2 + `,]}`},
	{"leading zero", `{"trees":[` + stump2 + `],"oob_error":01}`},
	{"bare fraction", `{"trees":[` + stump2 + `],"oob_error":.5}`},
	{"float feature", `{"trees":[{"num_features":2,"nodes":[{"leaf":false,"feature":1.0,"left":1,"right":2},{"leaf":true},{"leaf":true}]}]}`},
	{"number out of range", `{"trees":[` + stump2 + `],"oob_error":1e400}`},
	{"string leaf", `{"trees":[{"num_features":1,"nodes":[{"leaf":"true"}]}]}`},
	{"bad escape in unknown", `{"x":"\q","trees":[` + stump2 + `]}`},
	{"control byte in unknown", "{\"x\":\"\x01\",\"trees\":[" + stump2 + "]}"},
	{"unclosed unknown", `{"x":[1,2,"trees":[` + stump2 + `]}`},
}

// flatOnly are checkpoints LoadFlat refuses although the reference
// reads them: JSON that encoding/json resolves by rules no writer
// relies on.
var flatOnly = []struct{ name, data string }{
	{"folded key", `{"Trees":[` + stump2 + `]}`},
	{"folded node key", `{"trees":[{"num_features":1,"nodes":[{"leaf":true,"PROB":1}]}]}`},
	{"long s folds to s", `{"tree` + "\u017f" + `":[` + stump2 + `]}`},
	{"escaped key", `{"tre\u0065s":[` + stump2 + `]}`},
	{"escaped unknown key", `{"\u0078":0,"trees":[` + stump2 + `]}`},
	{"twice", `{"trees":[` + stump2 + `],"trees":[` + stump20 + `]}`},
	{"null scalar", `{"trees":[{"num_features":1,"nodes":[{"leaf":true,"prob":null}]}]}`},
	{"deep unknown", `{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `,"trees":[` + stump2 + `]}`},
}

// TestLoadFlatRefusesMalformed: each malformed checkpoint is an error
// from LoadFlat and from the reference, never a panic or an expansion,
// and each flatOnly one is an error from LoadFlat.
func TestLoadFlatRefusesMalformed(t *testing.T) {
	for _, tc := range malformed {
		t.Run(tc.name, func(t *testing.T) {
			if ff, err := LoadFlat([]byte(tc.data)); err == nil {
				t.Fatalf("LoadFlat accepted it: %d nodes", len(ff.nodes))
			}
			if _, err := referenceLoad([]byte(tc.data)); err == nil {
				t.Fatal("the reference accepted it")
			}
		})
	}
	for _, tc := range flatOnly {
		t.Run(tc.name, func(t *testing.T) {
			if ff, err := LoadFlat([]byte(tc.data)); err == nil {
				t.Fatalf("LoadFlat accepted it: %d nodes", len(ff.nodes))
			}
		})
	}
}

// TestLoadFlatReadsWhatLoadReads: layout the writers never produce but
// JSON allows (whitespace, key order, unknown keys with values of every
// kind) loads exactly as the reference reads it.
func TestLoadFlatReadsWhatLoadReads(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"stump", `{"trees":[` + stump2 + `]}`},
		{"whitespace", " \t\r\n{ \"trees\" :\n[ " + strings.ReplaceAll(stump2, ",", " ,\t") + " ] ,\"oob_error\" : -1 }\n"},
		{"key order", `{"oob_error":0.25,"trees":[{"nodes":[{"right":2,"left":1,"threshold":-0,"feature":1},{"prob":0.5,"leaf":true},{"positive":true,"leaf":true,"prob":1}],"num_features":2}]}`},
		{"unknown keys", `{"model_version":7,"a":{"\u0062":[1,-2.5e-3,true,false,null,"\"\\\/\b\f\n\r\té\ud83d"]},"trees":[{"c":{},"num_features":2,"d":[],"nodes":[{"leaf":false,"e":"x","feature":1,"threshold":0.5,"left":1,"right":2},{"leaf":true},{"leaf":true,"prob":1}]}],"oob_error":0.1}`},
		{"leaf fields ignored", `{"trees":[{"num_features":1,"nodes":[{"leaf":true,"prob":0.75,"feature":-4,"threshold":9,"left":-1,"right":0}]}]}`},
		{"leaf-only tree", `{"trees":[` + stump2 + `,{"num_features":2,"nodes":[{"leaf":true,"prob":0.5}]}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := LoadFlat([]byte(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceLoad([]byte(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameFlat(got, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForestSaveLoadRoundTrip: a trained forest's checkpoint loads
// back with its ensemble size, OOB error and every vote.
func TestForestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs(300, 4, 21)
	cfg := DefaultConfig()
	cfg.NumTrees = 12
	orig, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := orig.Flatten().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != orig.NumTrees() {
		t.Errorf("tree count %d vs %d", back.NumTrees(), orig.NumTrees())
	}
	if back.OOBError() != orig.OOBError() {
		t.Errorf("OOB %g vs %g", back.OOBError(), orig.OOBError())
	}
	for i, x := range X {
		if p := float64(back.votes(x)) / float64(back.NumTrees()); p != orig.Prob(x) {
			t.Fatalf("row %d: %g of the trees vote positive, want %g", i, p, orig.Prob(x))
		}
	}
}

func TestForestLoadRejectsCorrupt(t *testing.T) {
	if _, err := LoadFlat([]byte(`{"trees":[]}`)); err == nil {
		t.Error("empty forest should fail")
	}
	if _, err := LoadFlat([]byte(`garbage`)); err == nil {
		t.Error("garbage should fail")
	}
}

func TestEmptyForestSaveFails(t *testing.T) {
	if _, err := (&FlatForest{}).MarshalJSON(); err == nil {
		t.Error("writing a forest without trees should fail")
	}
}

func TestNaNOOBSurvivesRoundTrip(t *testing.T) {
	// A 1-tree forest on one row has no OOB samples -> NaN.
	cfg := DefaultConfig()
	cfg.NumTrees = 1
	f, err := Train([][]float64{{0, 0, 0}}, []bool{true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBError()) {
		t.Fatal("one-row forest has an OOB estimate")
	}
	data, err := f.Flatten().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.OOBError()) {
		t.Error("NaN OOB should round-trip as NaN")
	}
}

// checkpointSeeds returns what MarshalJSON writes for small trained
// forests and for one with a NaN OOB error, each as written, indented,
// and with the store's leading model_version.
func checkpointSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	add := func(data []byte) {
		var ind bytes.Buffer
		if err := json.Indent(&ind, data, "", "\t"); err != nil {
			t.Fatal(err)
		}
		versioned := append([]byte(`{"model_version":3,`), data[1:]...)
		seeds = append(seeds, data, ind.Bytes(), versioned)
	}
	for _, tc := range []struct{ n, nf, trees int }{{12, 2, 1}, {24, 4, 2}, {40, 3, 3}, {50, 6, 2}, {60, 5, 4}, {80, 2, 3}} {
		_, ff, _ := trainedPair(t, int64(tc.n), tc.n, tc.nf, tc.trees)
		data, err := ff.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		add(data)
	}
	nan, err := Train([][]float64{{0, 0, 0}}, []bool{true}, Config{NumTrees: 1, MaxDepth: 10, MinLeaf: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(nan.OOBError()) {
		t.Fatal("one-row forest has an OOB estimate")
	}
	data, err := nan.Flatten().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	add(data)
	return seeds
}

// FuzzLoadFlatMatchesReference: whatever LoadFlat accepts, the
// encoding/json reference reads too, to the same forest bit for bit.
func FuzzLoadFlatMatchesReference(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		if _, err := LoadFlat(seed); err != nil {
			f.Fatalf("a written checkpoint does not load: %v\n%s", err, seed)
		}
		f.Add(seed)
	}
	for _, data := range []string{nullTree, mixedWidths, sharedChildren} {
		f.Add([]byte(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadFlat(data)
		if err != nil {
			return
		}
		ref, err := referenceLoad(data)
		if err != nil {
			t.Fatalf("LoadFlat accepted what the reference refuses (%v)", err)
		}
		if err := sameFlat(got, ref); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkLoadFlat decodes one checkpoint shaped like a serving model:
// forest.DefaultConfig() (50 trees, depth 10) on 64 rows of 10
// features gives 938 nodes in about 51 KB, stamped with a model
// version as the store writes it.
func BenchmarkLoadFlat(b *testing.B) {
	X, y := randomSet(rand.New(rand.NewSource(1)), 64, 10)
	f, err := Train(X, y, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	data, err := f.Flatten().MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	data = append([]byte(`{"model_version":1,`), data[1:]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFlat(data); err != nil {
			b.Fatal(err)
		}
	}
}
