package core_test

import (
	"fmt"
	"math/rand"

	"selflearn/internal/core"
)

// ExampleLabel demonstrates Algorithm 1 on a toy feature matrix: 200
// one-feature points of unit noise with a shifted block of 20 points
// starting at index 80. The argmax of the distance curve recovers the
// block position.
func ExampleLabel() {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 200)
	for i := range X {
		v := rng.NormFloat64()
		if i >= 80 && i < 100 {
			v += 5 // the "seizure"
		}
		X[i] = []float64{v}
	}
	res, err := core.Label(X, 20)
	if err != nil {
		panic(err)
	}
	fmt.Printf("label starts at point %d (true start 80)\n", res.Index)
	// Output:
	// label starts at point 80 (true start 80)
}
