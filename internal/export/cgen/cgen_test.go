package cgen

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"selflearn/internal/ml/forest"
)

func trainedForest(t *testing.T) (*forest.Forest, [][]float64, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		pos := i%3 == 0
		base := 0.0
		if pos {
			base = 3
		}
		X = append(X, []float64{base + rng.NormFloat64(), base + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, pos)
	}
	cfg := forest.DefaultConfig()
	cfg.NumTrees = 15
	f, err := forest.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, X, y
}

func TestFlattenPredictMatchesForest(t *testing.T) {
	f, X, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NumFeatures != 3 || len(spec.Roots) != 15 {
		t.Fatalf("spec shape: %d features, %d roots", spec.NumFeatures, len(spec.Roots))
	}
	rng := rand.New(rand.NewSource(6))
	mismatches := 0
	probe := append([][]float64(nil), X...)
	for i := 0; i < 500; i++ {
		probe = append(probe, []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3})
	}
	for _, x := range probe {
		got, err := spec.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != f.Predict(x) {
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d/%d predictions changed after flattening", mismatches, len(probe))
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	f, _, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Predict([]float64{1}); err == nil {
		t.Error("wrong dimensionality should fail")
	}
}

func TestWriteCStructure(t *testing.T) {
	f, _, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spec.WriteC(&buf, "seiz_rf"); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	for _, want := range []string{
		"#include <math.h>",
		"#include <stdint.h>",
		"#define SEIZ_RF_NUM_FEATURES 3",
		"#define SEIZ_RF_NUM_TREES 15",
		"static const int16_t seiz_rf_feature[]",
		"static const float seiz_rf_threshold[]",
		"static const int32_t seiz_rf_left[]",
		"static const int32_t seiz_rf_right[]",
		"static const int32_t seiz_rf_roots[]",
		"int seiz_rf_predict(const float *x)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	// No dangling commas before closing braces.
	if strings.Contains(src, ",\n};") {
		t.Error("trailing comma before array close")
	}
}

// TestCFloat pins the threshold literals: each is a C float constant
// that reads back as the same float32.
func TestCFloat(t *testing.T) {
	for _, c := range []struct {
		t    float32
		want string
	}{
		{0, "0.0f"},
		{float32(math.Copysign(0, -1)), "-0.0f"},
		{125, "125.0f"},
		{-2.5, "-2.5f"},
		{0.1, "0.1f"},
		{1e-7, "1e-07f"},
		{3e20, "3e+20f"},
		{math.MaxFloat32, "3.4028235e+38f"},
		{math.SmallestNonzeroFloat32, "1e-45f"},
		{float32(math.Inf(1)), "INFINITY"},
		{float32(math.Inf(-1)), "-INFINITY"},
		{float32(math.NaN()), "NAN"},
	} {
		got := cFloat(c.t)
		if got != c.want {
			t.Errorf("cFloat(%g) = %q, want %q", c.t, got, c.want)
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(got, "f"), 32); err == nil && math.Float32bits(float32(v)) != math.Float32bits(c.t) {
			t.Errorf("%q reads back as %g, want %g", got, v, c.t)
		}
	}
}

// TestWriteCCompiles builds the C written for a trained forest, and for
// one whose thresholds include every non-finite value, with a strict
// C99 compiler. It skips when no cc is on PATH.
func TestWriteCCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no cc on PATH")
	}
	f, _, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	odd := &ForestSpec{
		Feature:     []int16{0, 1, -1, -1, 2, -1, -1},
		Threshold:   []float32{float32(math.Inf(1)), float32(math.Inf(-1)), 0, 0, float32(math.NaN()), 0, 0},
		Left:        []int32{1, 2, 1, 0, 5, 0, 1},
		Right:       []int32{4, 3, 0, 0, 6, 0, 0},
		Roots:       []int32{0},
		NumFeatures: 3,
	}
	dir := t.TempDir()
	for name, s := range map[string]*ForestSpec{"trained": spec, "nonfinite": odd} {
		src := filepath.Join(dir, name+".c")
		var buf bytes.Buffer
		if err := s.WriteC(&buf, "seiz_rf"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(src, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(cc, "-std=c99", "-Wall", "-Werror", "-pedantic", "-c", "-o", filepath.Join(dir, name+".o"), src).CombinedOutput()
		if err != nil {
			t.Errorf("%s: cc failed: %v\n%s", name, err, out)
		}
	}
}

func TestWriteCRejectsBadPrefix(t *testing.T) {
	f, _, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "9abc", "has-dash", "has space"} {
		if err := spec.WriteC(&bytes.Buffer{}, bad); err == nil {
			t.Errorf("prefix %q should be rejected", bad)
		}
	}
}

func TestFlashBudget(t *testing.T) {
	f, _, _ := trainedForest(t)
	spec, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	bytes := spec.FlashBytes()
	if bytes <= 0 {
		t.Fatal("flash footprint must be positive")
	}
	// A 15-tree window classifier must fit comfortably in the
	// STM32L151's 384 KB flash.
	if bytes > 384*1024/2 {
		t.Errorf("model footprint %d B implausibly large", bytes)
	}
}

func TestFlattenEmptyForestFails(t *testing.T) {
	var f forest.Forest
	if _, err := Flatten(&f); err == nil {
		t.Error("empty forest should fail")
	}
}
