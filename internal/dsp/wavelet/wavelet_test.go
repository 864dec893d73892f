package wavelet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allWavelets() []Wavelet { return []Wavelet{Haar, DB2, DB3, DB4, Sym4} }

func randomSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestFilterCoefficientsSumToSqrt2(t *testing.T) {
	for _, w := range allWavelets() {
		var s float64
		for _, c := range w.scaling {
			s += c
		}
		if math.Abs(s-math.Sqrt2) > 1e-10 {
			t.Errorf("%s scaling filter sums to %.15f, want √2", w.Name(), s)
		}
	}
}

func TestOrthonormality(t *testing.T) {
	for _, w := range allWavelets() {
		if e := w.OrthonormalityError(); e > 1e-12 {
			t.Errorf("%s orthonormality error %g", w.Name(), e)
		}
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	if _, _, err := DB4.Forward(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := DB4.Forward(make([]float64, 7)); err != ErrOddLength {
		t.Error("odd input should return ErrOddLength")
	}
}

func TestSingleLevelRoundTrip(t *testing.T) {
	for _, w := range allWavelets() {
		for _, n := range []int{2, 4, 8, 64, 1024} {
			x := randomSignal(int64(n), n)
			a, d, err := w.Forward(x)
			if err != nil {
				t.Fatalf("%s n=%d: %v", w.Name(), n, err)
			}
			if len(a) != n/2 || len(d) != n/2 {
				t.Fatalf("%s n=%d: coefficient lengths %d/%d", w.Name(), n, len(a), len(d))
			}
			back, err := w.Inverse(a, d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(back[i]-x[i]) > 1e-10 {
					t.Fatalf("%s n=%d: round-trip mismatch at %d: %g vs %g",
						w.Name(), n, i, back[i], x[i])
				}
			}
		}
	}
}

func TestInverseErrors(t *testing.T) {
	if _, err := DB4.Inverse([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := DB4.Inverse(nil, nil); err == nil {
		t.Error("empty coefficients should error")
	}
}

func TestEnergyPreservation(t *testing.T) {
	// Orthonormal transform must preserve energy (Parseval).
	for _, w := range allWavelets() {
		x := randomSignal(99, 512)
		eIn := energy(x)
		d, err := w.Decompose(x, 7)
		if err != nil {
			t.Fatal(err)
		}
		eOut := energy(d.Approx)
		for _, det := range d.Details {
			eOut += energy(det)
		}
		if math.Abs(eOut-eIn) > 1e-8*eIn {
			t.Errorf("%s: subband energy %g, time energy %g", w.Name(), eOut, eIn)
		}
	}
}

func TestMaxLevel(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 6: 1, 8: 3, 1024: 10, 1000: 3}
	for n, want := range cases {
		if got := MaxLevel(n); got != want {
			t.Errorf("MaxLevel(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDecomposeLevel7Shape(t *testing.T) {
	// The paper's configuration: a 4 s window at 256 Hz = 1024 samples,
	// decomposed to level 7 with db4.
	x := randomSignal(1, 1024)
	d, err := DB4.Decompose(x, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Details) != 7 {
		t.Fatalf("Levels = %d, want 7", len(d.Details))
	}
	wantLens := []int{512, 256, 128, 64, 32, 16, 8}
	for l := 1; l <= 7; l++ {
		if got := len(d.Detail(l)); got != wantLens[l-1] {
			t.Errorf("level %d detail length = %d, want %d", l, got, wantLens[l-1])
		}
	}
	if len(d.Approx) != 8 {
		t.Errorf("approx length = %d, want 8", len(d.Approx))
	}
	if d.Detail(0) != nil || d.Detail(8) != nil {
		t.Error("out-of-range Detail should return nil")
	}
}

func TestDecomposeErrors(t *testing.T) {
	x := randomSignal(2, 100) // 100 = 4·25, max level 2
	if _, err := DB4.Decompose(x, 0); err == nil {
		t.Error("level 0 should error")
	}
	if _, err := DB4.Decompose(x, 3); err == nil {
		t.Error("level beyond MaxLevel should error")
	}
	if _, err := DB4.Decompose(x, 2); err != nil {
		t.Errorf("level 2 on length 100 should work: %v", err)
	}
}

func TestMultilevelRoundTrip(t *testing.T) {
	for _, w := range allWavelets() {
		x := randomSignal(3, 256)
		d, err := w.Decompose(x, 5)
		if err != nil {
			t.Fatal(err)
		}
		back, err := w.Reconstruct(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("%s: multilevel round-trip mismatch at %d", w.Name(), i)
			}
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	if _, err := DB4.Reconstruct(nil); err == nil {
		t.Error("nil decomposition should error")
	}
	if _, err := DB4.Reconstruct(&Decomposition{}); err == nil {
		t.Error("empty decomposition should error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (uint(rng.Intn(5)) + 3) // 8..128
		level := 1 + rng.Intn(3)
		x := randomSignal(seed+1, n)
		d, err := DB4.Decompose(x, level)
		if err != nil {
			return false
		}
		back, err := DB4.Reconstruct(d)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantSignalHasNoDetail(t *testing.T) {
	// All Daubechies wavelets have at least one vanishing moment, so a
	// constant signal produces zero detail coefficients.
	x := make([]float64, 64)
	for i := range x {
		x[i] = 3.25
	}
	for _, w := range allWavelets() {
		_, d, err := w.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range d {
			if math.Abs(v) > 1e-10 {
				t.Errorf("%s: detail[%d] = %g for constant input", w.Name(), i, v)
				break
			}
		}
	}
}

func TestLinearRampHasNoDetailForDB2Plus(t *testing.T) {
	// db2+ have two vanishing moments: linear signals vanish in the
	// detail band (away from the periodic wrap).
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 * float64(i)
	}
	_, d, err := DB2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Skip coefficients affected by the periodic boundary (last taps).
	for i := 1; i < len(d)-2; i++ {
		if math.Abs(d[i]) > 1e-9 {
			t.Errorf("db2 detail[%d] = %g for linear ramp", i, d[i])
			break
		}
	}
}

func TestSubbandEnergies(t *testing.T) {
	x := randomSignal(17, 256)
	d, err := DB4.Decompose(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	es := d.AppendSubbandEnergies(nil)
	if len(es) != 5 { // 4 detail levels + approx
		t.Fatalf("want 5 subband energies, got %d", len(es))
	}
	var sum float64
	for _, e := range es {
		if e < 0 {
			t.Error("negative subband energy")
		}
		sum += e
	}
	if e := energy(x); math.Abs(sum-e) > 1e-8*e {
		t.Errorf("subband energies sum to %g, want the signal energy %g", sum, e)
	}
}

func TestHighFrequencyEnergyInFineDetail(t *testing.T) {
	// A Nyquist-rate alternation should put nearly all energy in the
	// level-1 detail band.
	n := 256
	x := make([]float64, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = 1
		} else {
			x[i] = -1
		}
	}
	d, err := DB4.Decompose(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if share := energy(d.Detail(1)) / energy(x); share < 0.9 {
		t.Errorf("level-1 detail should capture a Nyquist tone, got share %g", share)
	}
}

func TestPadPow2(t *testing.T) {
	ws := DB4.NewWorkspace()
	if got := ws.PadPow2(nil); len(got) != 0 {
		t.Error("empty input unchanged")
	}
	in := []float64{1, 2, 3}
	out := ws.PadPow2(in)
	if len(out) != 4 || out[3] != 3 {
		t.Errorf("PadPow2([1 2 3]) = %v, want [1 2 3 3]", out)
	}
	same := []float64{1, 2, 3, 4}
	if &ws.PadPow2(same)[0] != &same[0] {
		t.Error("power-of-two input should be returned as-is")
	}
}
