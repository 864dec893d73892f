package tree_test

import (
	"testing"

	"selflearn/internal/ml/forest"
)

// A tree's JSON is decoded only as one tree of a forest checkpoint, by
// forest.LoadFlat, so each corrupt tree is given as a checkpoint's only
// tree. The checkpoint's own structure is tested in forest.
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
		data := `{"trees":[` + c + `],"oob_error":0}`
		if _, err := forest.LoadFlat([]byte(data)); err == nil {
			t.Errorf("case %d should fail: %s", i, c)
		}
	}
	// The wrapper alone is a valid checkpoint, so each refusal above is
	// the tree's.
	ok := `{"num_features":2,"nodes":[{"feature":0,"left":1,"right":2},{"leaf":true},{"leaf":true}]}`
	if _, err := forest.LoadFlat([]byte(`{"trees":[` + ok + `],"oob_error":0}`)); err != nil {
		t.Fatalf("valid tree refused: %v", err)
	}
}
