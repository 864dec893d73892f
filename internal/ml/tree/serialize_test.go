package tree

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	X, y := gaussianBlobs(300, 4, 11)
	orig, err := Train(X, y, Config{MaxDepth: 8, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != orig.NumFeatures() || back.NumNodes() != orig.NumNodes() {
		t.Errorf("shape changed: %d/%d vs %d/%d",
			back.NumFeatures(), back.NumNodes(), orig.NumFeatures(), orig.NumNodes())
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		if orig.Predict(x) != back.Predict(x) {
			t.Fatalf("prediction mismatch at trial %d", i)
		}
		if orig.Prob(x) != back.Prob(x) {
			t.Fatalf("probability mismatch at trial %d", i)
		}
	}
}

func TestTreeUnmarshalRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"num_features":2,"nodes":[]}`,
		`{"num_features":0,"nodes":[{"leaf":true}]}`,
		`{"num_features":2,"nodes":[{"feature":0,"threshold":1,"left":0,"right":0}]}`,               // self-link
		`{"num_features":2,"nodes":[{"feature":0,"threshold":1,"left":5,"right":6}]}`,               // dangling
		`{"num_features":2,"nodes":[{"feature":7,"threshold":1,"left":1,"right":1},{"leaf":true}]}`, // bad feature
		`{"num_features":2,"nodes":[{"feature":0,"left":1,"right":1},{"leaf":true}]}`,               // shared child
		`{"num_features":2,"nodes":[{"feature":0,"left":2,"right":1},{"leaf":true},{"leaf":true}]}`, // left link skips
		`{"num_features":2,"nodes":[{"feature":0,"left":1,"right":3},{"leaf":true},{"leaf":true},{"leaf":true}]}`,
		`{"num_features":2,"nodes":[{"leaf":true},{"leaf":true}]}`,                    // unlinked node
		`{"num_features":2,"nodes":[{"leaf":true},{"feature":0,"left":2,"right":3}]}`, // split is last
		`not json`,
	}
	for i, c := range cases {
		var tr Tree
		if err := json.Unmarshal([]byte(c), &tr); err == nil {
			t.Errorf("case %d should fail: %s", i, c)
		}
	}
}

func TestEmptyTreeMarshalFails(t *testing.T) {
	var tr Tree
	if _, err := json.Marshal(&tr); err == nil {
		t.Error("marshaling an untrained tree should fail")
	}
}
