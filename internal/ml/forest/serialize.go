package forest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"selflearn/internal/ml/tree"
)

type forestDTO struct {
	Trees    []*tree.Tree `json:"trees"`
	OOBError float64      `json:"oob_error"`
}

// MarshalJSON encodes the forest (trees plus the out-of-bag estimate) for
// deployment to the wearable or for checkpointing a self-learning
// session between charges.
func (f *Forest) MarshalJSON() ([]byte, error) {
	if len(f.trees) == 0 {
		return nil, errors.New("forest: empty forest")
	}
	oob := f.oob
	if math.IsNaN(oob) {
		oob = -1
	}
	return json.Marshal(forestDTO{Trees: f.trees, OOBError: oob})
}

// UnmarshalJSON decodes a forest produced by MarshalJSON. A null tree,
// and a tree whose width differs from the first tree's, are errors.
func (f *Forest) UnmarshalJSON(data []byte) error {
	var dto forestDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return err
	}
	if len(dto.Trees) == 0 {
		return errors.New("forest: no trees")
	}
	for i, t := range dto.Trees {
		if t == nil {
			return fmt.Errorf("forest: tree %d is null", i)
		}
		if nf := dto.Trees[0].NumFeatures(); t.NumFeatures() != nf {
			return fmt.Errorf("forest: tree %d reads %d features, tree 0 reads %d", i, t.NumFeatures(), nf)
		}
	}
	f.trees = dto.Trees
	f.oob = dto.OOBError
	if f.oob < 0 {
		f.oob = math.NaN()
	}
	return nil
}

// Save writes the forest as JSON to w.
func (f *Forest) Save(w io.Writer) error {
	data, err := f.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Load reads a forest saved with Save.
func Load(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f := &Forest{}
	if err := f.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return f, nil
}
