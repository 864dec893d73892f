// Package cgen emits portable C99 source for deploying trained models to
// the wearable firmware: the random-forest detector becomes flat
// threshold/child arrays (no pointers, no recursion, fixed memory — the
// shape embedded toolchains want), together with a predict function and
// a size report against the STM32L151's flash budget.
package cgen

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"selflearn/internal/ml/forest"
)

// ForestSpec is the flattened, codegen-ready form of a random forest.
type ForestSpec struct {
	// Per-node arrays across all trees. Feature < 0 marks a leaf, whose
	// 0/1 vote is its Left.
	Feature   []int16
	Threshold []float32
	Left      []int32
	Right     []int32
	// Roots holds each tree's root node index.
	Roots []int32
	// NumFeatures is the input dimensionality.
	NumFeatures int
}

// Flatten lays the forest's node table out as C arrays, node for node:
// a split's left child is the next node and its right child the one
// the table names; a leaf's vote becomes its Left.
func Flatten(ff *forest.FlatForest) *ForestSpec {
	nodes, roots := ff.Nodes()
	spec := &ForestSpec{
		Feature:     make([]int16, len(nodes)),
		Threshold:   make([]float32, len(nodes)),
		Left:        make([]int32, len(nodes)),
		Right:       make([]int32, len(nodes)),
		Roots:       slices.Clone(roots),
		NumFeatures: ff.NumFeatures(),
	}
	for i, n := range nodes {
		spec.Feature[i] = int16(n.Feature)
		if n.Feature < 0 {
			spec.Left[i] = n.Right
			continue
		}
		spec.Threshold[i] = float32(n.Value)
		spec.Left[i] = int32(i + 1)
		spec.Right[i] = n.Right
	}
	return spec
}

// FlashBytes returns the byte footprint of the node arrays (2 + 4 + 4 +
// 4 bytes per node plus 4 per root), the number that must fit the MCU's
// flash next to the firmware.
func (s *ForestSpec) FlashBytes() int {
	return len(s.Feature)*(2+4+4+4) + len(s.Roots)*4
}

// WriteC emits a self-contained C99 translation unit with the model
// arrays and a `int <prefix>_predict(const float *x)` majority-vote
// function.
func (s *ForestSpec) WriteC(w io.Writer, prefix string) error {
	if prefix == "" || !isCIdent(prefix) {
		return fmt.Errorf("cgen: invalid C identifier prefix %q", prefix)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated by selflearn cgen. Do not edit. */\n")
	fmt.Fprintf(&b, "/* %d trees, %d nodes, %d input features, %d bytes of tables. */\n",
		len(s.Roots), len(s.Feature), s.NumFeatures, s.FlashBytes())
	fmt.Fprintf(&b, "#include <math.h>\n#include <stdint.h>\n\n")
	fmt.Fprintf(&b, "#define %s_NUM_FEATURES %d\n", strings.ToUpper(prefix), s.NumFeatures)
	fmt.Fprintf(&b, "#define %s_NUM_TREES %d\n\n", strings.ToUpper(prefix), len(s.Roots))

	writeArray(&b, "static const int16_t "+prefix+"_feature[]", len(s.Feature), func(i int) string {
		return fmt.Sprintf("%d", s.Feature[i])
	})
	writeArray(&b, "static const float "+prefix+"_threshold[]", len(s.Threshold), func(i int) string {
		return cFloat(s.Threshold[i])
	})
	writeArray(&b, "static const int32_t "+prefix+"_left[]", len(s.Left), func(i int) string {
		return fmt.Sprintf("%d", s.Left[i])
	})
	writeArray(&b, "static const int32_t "+prefix+"_right[]", len(s.Right), func(i int) string {
		return fmt.Sprintf("%d", s.Right[i])
	})
	writeArray(&b, "static const int32_t "+prefix+"_roots[]", len(s.Roots), func(i int) string {
		return fmt.Sprintf("%d", s.Roots[i])
	})

	fmt.Fprintf(&b, `
/* Majority vote over all trees; returns 1 for seizure, 0 otherwise. */
int %[1]s_predict(const float *x)
{
    int votes = 0;
    for (int t = 0; t < %[2]s_NUM_TREES; t++) {
        int32_t n = %[1]s_roots[t];
        while (%[1]s_feature[n] >= 0) {
            if (x[%[1]s_feature[n]] <= %[1]s_threshold[n]) {
                n = %[1]s_left[n];
            } else {
                n = %[1]s_right[n];
            }
        }
        votes += (int)%[1]s_left[n];
    }
    return 2 * votes >= %[2]s_NUM_TREES;
}
`, prefix, strings.ToUpper(prefix))
	_, err := io.WriteString(w, b.String())
	return err
}

// cFloat writes t as a C float constant that reads back as t: the
// shortest decimal that round-trips the float32, with ".0" added when
// it has neither a point nor an exponent (C reads "0f" as an integer
// with a bad suffix), and <math.h>'s INFINITY and NAN for the values a
// decimal cannot spell.
func cFloat(t float32) string {
	switch v := float64(t); {
	case math.IsInf(v, 1):
		return "INFINITY"
	case math.IsInf(v, -1):
		return "-INFINITY"
	case math.IsNaN(v):
		return "NAN"
	}
	text := strconv.FormatFloat(float64(t), 'g', -1, 32)
	if !strings.ContainsAny(text, ".e") {
		text += ".0"
	}
	return text + "f"
}

func writeArray(b *strings.Builder, decl string, n int, elem func(int) string) {
	fmt.Fprintf(b, "%s = {\n    ", decl)
	for i := 0; i < n; i++ {
		b.WriteString(elem(i))
		if i != n-1 {
			b.WriteString(", ")
		}
		if (i+1)%12 == 0 {
			b.WriteString("\n    ")
		}
	}
	b.WriteString("\n};\n\n")
}

func isCIdent(s string) bool {
	for i, r := range s {
		switch {
		case r == '_',
			r >= 'a' && r <= 'z',
			r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// Predict evaluates the flattened model in Go — used to verify that the
// emitted C tables preserve the original forest's decisions.
func (s *ForestSpec) Predict(x []float64) (bool, error) {
	if len(x) != s.NumFeatures {
		return false, fmt.Errorf("cgen: want %d features, got %d", s.NumFeatures, len(x))
	}
	votes := 0
	for _, root := range s.Roots {
		n := root
		for s.Feature[n] >= 0 {
			if x[s.Feature[n]] <= float64(s.Threshold[n]) {
				n = s.Left[n]
			} else {
				n = s.Right[n]
			}
		}
		votes += int(s.Left[n])
	}
	return 2*votes >= len(s.Roots), nil
}
