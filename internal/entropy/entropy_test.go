package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

// The histogram estimators bin a signal's range into nbins equal bins
// (the maximum lands in the last), so these signals realise known
// distributions: uniform4 → {¼, ¼, ¼, ¼} over 4 bins, skewed →
// {½, ¼, ¼} over 3, coin → {½, ½} over 2 and gapped → {½, 0, ½} over 3.
var (
	uniform4 = []float64{0, 1, 2, 3}
	skewed   = []float64{0, 0, 1, 2}
	coin     = []float64{0, 1}
	gapped   = []float64{0, 2}
)

// shannon is ShannonSignal that fails the test on error.
func shannon(t *testing.T, xs []float64, nbins int) float64 {
	t.Helper()
	var ws Workspace
	h, err := ws.ShannonSignal(xs, nbins)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestShannonUniform(t *testing.T) {
	approx(t, shannon(t, uniform4, 4), math.Log(4), 1e-12, "uniform Shannon")
	approx(t, shannon(t, []float64{1, 1, 1}, 4), 0, 1e-12, "deterministic Shannon")
	approx(t, shannon(t, nil, 4), 0, 0, "empty Shannon")
	approx(t, shannon(t, gapped, 3), math.Log(2), 1e-12, "Shannon skips zeros")
}

func TestRenyiLimits(t *testing.T) {
	var ws Workspace
	// alpha -> 1 recovers Shannon.
	h1, err := ws.RenyiSignal(skewed, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, h1, shannon(t, skewed, 3), 1e-12, "Rényi alpha=1")
	hNear, err := ws.RenyiSignal(skewed, 1.0001, 3)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, hNear, shannon(t, skewed, 3), 1e-3, "Rényi alpha→1 limit")
	// Uniform distribution: all orders give log(n).
	for _, a := range []float64{0.5, 2, 3} {
		h, err := ws.RenyiSignal(uniform4, a, 4)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, h, math.Log(4), 1e-12, "uniform Rényi")
	}
}

func TestRenyiOrder2(t *testing.T) {
	var ws Workspace
	h, err := ws.RenyiSignal(coin, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, h, math.Log(2), 1e-12, "collision entropy of fair coin")
}

func TestRenyiErrors(t *testing.T) {
	var ws Workspace
	if _, err := ws.RenyiSignal([]float64{1}, 0, 4); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := ws.RenyiSignal([]float64{1}, -2, 4); err == nil {
		t.Error("negative alpha should error")
	}
	h, err := ws.RenyiSignal(nil, 2, 4)
	if err != nil || h != 0 {
		t.Error("empty distribution should give 0")
	}
}

func TestRenyiMonotoneInAlpha(t *testing.T) {
	// Rényi entropy is non-increasing in alpha.
	var ws Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		h1, err1 := ws.RenyiSignal(xs, 0.5, 8)
		h2, err2 := ws.RenyiSignal(xs, 2, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		return h1 >= h2-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRenyiSignal(t *testing.T) {
	var ws Workspace
	rng := rand.New(rand.NewSource(4))
	noisy := make([]float64, 4096)
	for i := range noisy {
		noisy[i] = rng.Float64()
	}
	hNoise, err := ws.RenyiSignal(noisy, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform noise across 16 bins approaches log 16.
	approx(t, hNoise, math.Log(16), 0.1, "uniform-noise Rényi")

	constant := make([]float64, 128)
	hConst, err := ws.RenyiSignal(constant, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, hConst, 0, 1e-12, "constant-signal Rényi")

	if _, err := ws.RenyiSignal(noisy, 2, 0); err == nil {
		t.Error("invalid bins should error")
	}
	h, err := ws.RenyiSignal(nil, 2, 8)
	if err != nil || h != 0 {
		t.Error("empty signal should give 0")
	}
}

func TestShannonSignal(t *testing.T) {
	var ws Workspace
	if _, err := ws.ShannonSignal([]float64{1, 2}, -1); err == nil {
		t.Error("invalid bins should error")
	}
	h, err := ws.ShannonSignal(nil, 8)
	if err != nil || h != 0 {
		t.Error("empty signal should give 0")
	}
}

func TestPermutationMonotoneSequence(t *testing.T) {
	var ws Workspace
	// A strictly increasing sequence has a single ordinal pattern: H = 0.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, n := range []int{3, 5, 7} {
		h, err := ws.Permutation(xs, n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, h, 0, 1e-12, "monotone permutation entropy")
	}
}

func TestPermutationNoiseNearOne(t *testing.T) {
	var ws Workspace
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h, err := ws.Permutation(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.98 || h > 1.0+1e-9 {
		t.Errorf("white-noise permutation entropy = %g, want ≈1", h)
	}
}

func TestPermutationPeriodicBelowNoise(t *testing.T) {
	var ws Workspace
	// A regular oscillation uses fewer ordinal patterns than noise.
	per := make([]float64, 4096)
	for i := range per {
		per[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	hp, err := ws.Permutation(per, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	noise := make([]float64, 4096)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	hn, err := ws.Permutation(noise, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hp >= hn {
		t.Errorf("periodic PE %g should be below noise PE %g", hp, hn)
	}
}

func TestPermutationBounds(t *testing.T) {
	var ws Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for _, n := range []int{3, 5, 7} {
			h, err := ws.Permutation(xs, n)
			if err != nil || h < 0 || h > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermutationShortAndErrors(t *testing.T) {
	var ws Workspace
	h, err := ws.Permutation([]float64{1, 2}, 5)
	if err != nil || h != 0 {
		t.Error("too-short signal should give 0 without error")
	}
	if _, err := ws.Permutation([]float64{1, 2, 3}, 1); err == nil {
		t.Error("order 1 should error")
	}
	if _, err := ws.Permutation([]float64{1, 2, 3}, 13); err == nil {
		t.Error("order 13 should error")
	}
}

func TestPermutationPaperOrders(t *testing.T) {
	var ws Workspace
	// The paper's configuration uses n=5 and n=7 on short subbands
	// (level-7 detail of a 1024-sample window has 8 coefficients) — the
	// implementation must handle that gracefully.
	xs := []float64{0.3, -1.2, 0.8, 0.1, -0.4, 2.2, -0.9, 0.5}
	for _, n := range []int{5, 7} {
		h, err := ws.Permutation(xs, n)
		if err != nil {
			t.Fatal(err)
		}
		if h < 0 || h > 1 {
			t.Errorf("n=%d entropy %g outside [0,1]", n, h)
		}
	}
}

func TestSampleEntropyRegularVsRandom(t *testing.T) {
	var ws Workspace
	per := make([]float64, 512)
	for i := range per {
		per[i] = math.Sin(2 * math.Pi * float64(i) / 32)
	}
	hPer, err := ws.SampleK(per, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	noise := make([]float64, 512)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	hNoise, err := ws.SampleK(noise, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if hPer >= hNoise {
		t.Errorf("periodic SampEn %g should be below noise SampEn %g", hPer, hNoise)
	}
}

func TestSampleEntropyToleranceMonotone(t *testing.T) {
	var ws Workspace
	// Larger tolerance -> more matches -> lower entropy (k=0.35 <= k=0.2).
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h02, err := ws.SampleK(xs, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	h035, err := ws.SampleK(xs, 2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if h035 > h02 {
		t.Errorf("SampEn(k=0.35)=%g should not exceed SampEn(k=0.2)=%g", h035, h02)
	}
}

func TestSampleEntropyDegenerate(t *testing.T) {
	var ws Workspace
	h, err := ws.Sample([]float64{1, 2}, 2, 0.5)
	if err != nil || h != 0 {
		t.Error("too-short input should give 0")
	}
	// Constant signal: everything matches, -log(1) = 0.
	constant := make([]float64, 64)
	h, err = ws.Sample(constant, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, h, 0, 1e-12, "constant SampEn")
	if _, err := ws.Sample([]float64{1, 2, 3}, 0, 0.1); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := ws.Sample([]float64{1, 2, 3}, 2, -1); err == nil {
		t.Error("negative tolerance should error")
	}
	if _, err := ws.SampleK([]float64{1, 2, 3}, 2, -0.1); err == nil {
		t.Error("negative k should error")
	}
	h, err = ws.SampleK(nil, 2, 0.2)
	if err != nil || h != 0 {
		t.Error("empty SampleK should give 0")
	}
}

func TestSampleEntropyNonNegativeProperty(t *testing.T) {
	var ws Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 120)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		h, err := ws.SampleK(xs, 2, 0.2)
		return err == nil && h >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
