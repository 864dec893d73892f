package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestCountAndRates(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		c.Count(true, true)
	}
	c.Count(true, false)
	for i := 0; i < 4; i++ {
		c.Count(false, false)
	}
	for i := 0; i < 2; i++ {
		c.Count(false, true)
	}
	if got := c.Sensitivity(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Sensitivity = %g, want 0.6", got)
	}
	if got := c.Specificity(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Specificity = %g, want 0.8", got)
	}
	if got := c.GeometricMean(); math.Abs(got-math.Sqrt(0.48)) > 1e-12 {
		t.Errorf("GeometricMean = %g, want √0.48", got)
	}
}

func TestDegenerateNaN(t *testing.T) {
	var c Confusion
	c.Count(false, false) // only negatives
	if !math.IsNaN(c.Sensitivity()) {
		t.Error("sensitivity without positives should be NaN")
	}
	if !math.IsNaN(c.GeometricMean()) {
		t.Error("gmean without positives should be NaN")
	}
	var p Confusion
	p.Count(false, true) // only positives, none predicted
	if !math.IsNaN(p.Specificity()) {
		t.Error("specificity without negatives should be NaN")
	}
}

func TestFromSlices(t *testing.T) {
	pred := []bool{true, false, true, false}
	act := []bool{true, false, false, true}
	c, err := FromSlices(pred, act)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.TN != 1 || c.FP != 1 || c.FN != 1 {
		t.Errorf("confusion = %+v", c)
	}
	if _, err := FromSlices(pred, act[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FromSlices(nil, nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestPerfectClassifier(t *testing.T) {
	c, err := FromSlices([]bool{true, false, true}, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if c.GeometricMean() != 1 {
		t.Errorf("perfect classifier metrics: %v", c)
	}
}

func TestString(t *testing.T) {
	var c Confusion
	c.Count(true, true)
	c.Count(false, false)
	s := c.String()
	if !strings.Contains(s, "TP=1") || !strings.Contains(s, "gmean=1.0000") {
		t.Errorf("String() = %q", s)
	}
}
