package window

import (
	"math"
	"testing"
)

// TestApplyLengthAndScaling checks the gain a Hann taper applies
// sample by sample: zero at both ends, unity at the midpoint.
func TestApplyLengthAndScaling(t *testing.T) {
	out := Coefficients(Hann, 5)
	if len(out) != 5 {
		t.Fatal("length change")
	}
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[4]) > 1e-12 {
		t.Error("hann endpoints should zero the signal")
	}
	if math.Abs(out[2]-1) > 1e-12 {
		t.Error("hann midpoint should pass the signal")
	}
}

func TestRectangularIsIdentity(t *testing.T) {
	for _, c := range Coefficients(Rectangular, 3) {
		if c != 1 {
			t.Fatal("rectangular window must not alter samples")
		}
	}
}

func TestPower(t *testing.T) {
	if p := Power(Rectangular, 16); math.Abs(p-1) > 1e-12 {
		t.Errorf("rectangular power = %g, want 1", p)
	}
	// Hann mean square tends to 3/8 for large n.
	if p := Power(Hann, 4096); math.Abs(p-0.375) > 1e-3 {
		t.Errorf("hann power = %g, want ≈0.375", p)
	}
	if Power(Hann, 0) != 0 {
		t.Error("n=0 power should be 0")
	}
}

func TestCoefficientsEdgeCases(t *testing.T) {
	if Coefficients(Hamming, -1) != nil {
		t.Error("negative n should be nil")
	}
	w := Coefficients(Func(42), 4)
	for _, v := range w {
		if v != 1 {
			t.Error("unknown func should fall back to rectangular")
		}
	}
}

func TestAllWindowsPeakNearUnity(t *testing.T) {
	for _, f := range []Func{Rectangular, Hann, Hamming, Blackman} {
		w := Coefficients(f, 65)
		max := 0.0
		for _, v := range w {
			if v > max {
				max = v
			}
		}
		if max < 0.99 || max > 1.01 {
			t.Errorf("%v peak = %g, want ≈1", f, max)
		}
	}
}
