package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive DFT for cross-validation.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err != ErrNotPow2 {
		t.Errorf("want ErrNotPow2, got %v", err)
	}
}

func TestForwardEmptyOK(t *testing.T) {
	if err := Forward(nil); err != nil {
		t.Errorf("empty input should be a no-op, got %v", err)
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dftNaive(x)
		got := append([]complex128(nil), x...)
		if err := Forward(got); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestRoundTrip inverts Forward through the conjugation identity
// x = conj(Forward(conj(X)))/n.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i])
	}
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(len(y)), 0)
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-10 {
			t.Fatalf("round-trip mismatch at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	const n = 128
	const bin = 10
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*bin*float64(i)/n), 0)
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	// Energy concentrated in bins +bin and n-bin, each of magnitude n/2.
	if math.Abs(cmplx.Abs(x[bin])-n/2) > 1e-9 {
		t.Errorf("|X[%d]| = %g, want %g", bin, cmplx.Abs(x[bin]), float64(n)/2)
	}
	for k := 0; k < n; k++ {
		if k == bin || k == n-bin {
			continue
		}
		if cmplx.Abs(x[k]) > 1e-8 {
			t.Fatalf("leakage at bin %d: %g", k, cmplx.Abs(x[k]))
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (uint(rng.Intn(6)) + 1)
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeE += real(x[i]) * real(x[i])
		}
		if err := Forward(x); err != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-6*math.Max(1, timeE)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 32
		a, b := make([]complex128, n), make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		Forward(a)
		Forward(b)
		Forward(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForwardReal(t *testing.T) {
	spec := []complex128{1, 0, 0, 0}
	if err := Forward(spec); err != nil {
		t.Fatal(err)
	}
	// Impulse has flat spectrum.
	for k, v := range spec {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse spectrum bin %d = %v, want 1", k, v)
		}
	}
}

func TestHermitianSymmetryOfRealSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	spec := make([]complex128, len(xs))
	for i, v := range xs {
		spec[i] = complex(v, 0)
	}
	if err := Forward(spec); err != nil {
		t.Fatal(err)
	}
	n := len(spec)
	for k := 1; k < n/2; k++ {
		if cmplx.Abs(spec[k]-cmplx.Conj(spec[n-k])) > 1e-9 {
			t.Fatalf("Hermitian symmetry violated at bin %d", k)
		}
	}
}
