package stats

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

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, Sum(xs), 10, 1e-12, "Sum")
	approx(t, Mean(xs), 2.5, 1e-12, "Mean")
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	if !math.IsNaN(GeometricMean(nil)) {
		t.Error("GeometricMean(nil) should be NaN")
	}
	if !math.IsNaN(RMS(nil)) {
		t.Error("RMS(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Variance(xs), 4, 1e-12, "Variance")
	approx(t, StdDev(xs), 2, 1e-12, "StdDev")
}

func TestRMS(t *testing.T) {
	approx(t, RMS([]float64{3, 4}), math.Sqrt(12.5), 1e-12, "RMS")
	approx(t, RMS([]float64{-2, 2}), 2, 1e-12, "RMS symmetric")
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	approx(t, Skewness(xs), 0, 1e-12, "Skewness")
}

func TestSkewnessRightTail(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 10}
	if Skewness(xs) <= 0 {
		t.Errorf("right-tailed data should have positive skewness, got %g", Skewness(xs))
	}
}

func TestSkewnessConstant(t *testing.T) {
	approx(t, Skewness([]float64{5, 5, 5}), 0, 0, "Skewness constant")
	approx(t, Kurtosis([]float64{5, 5, 5}), 0, 0, "Kurtosis constant")
}

func TestKurtosisGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	approx(t, Kurtosis(xs), 0, 0.1, "Kurtosis of Gaussian")
	approx(t, Skewness(xs), 0, 0.05, "Skewness of Gaussian")
}

func TestMinMaxArgMax(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	approx(t, Min(xs), -1, 0, "Min")
	approx(t, Max(xs), 7, 0, "Max")
	if got := ArgMax(xs); got != 2 {
		t.Errorf("ArgMax = %d, want 2 (first maximum)", got)
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
}

func TestMedian(t *testing.T) {
	approx(t, Median([]float64{3, 1, 2}), 2, 1e-12, "odd median")
	approx(t, Median([]float64{4, 1, 3, 2}), 2.5, 1e-12, "even median")
	approx(t, Median([]float64{42}), 42, 0, "single median")
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 1), 5, 0, "q1")
	approx(t, Quantile(xs, 0.25), 2, 1e-12, "q25")
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestGeometricMean(t *testing.T) {
	approx(t, GeometricMean([]float64{1, 4}), 2, 1e-12, "GeometricMean")
	approx(t, GeometricMean([]float64{2, 2, 2}), 2, 1e-12, "constant geomean")
	if !math.IsNaN(GeometricMean([]float64{1, 0})) {
		t.Error("geomean with zero should be NaN")
	}
	if !math.IsNaN(GeometricMean([]float64{1, -2})) {
		t.Error("geomean with negative should be NaN")
	}
}

func TestGeometricLEArithmetic(t *testing.T) {
	// AM-GM inequality as a property test.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e100 {
				v = 1
			}
			xs = append(xs, v)
		}
		return GeometricMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	z := []float64{1, 2, 3, 4, 5}
	ZScoreInPlace(z)
	approx(t, Mean(z), 0, 1e-12, "z mean")
	approx(t, StdDev(z), 1, 1e-12, "z std")
}

func TestZScoreConstant(t *testing.T) {
	z := []float64{7, 7, 7}
	ZScoreInPlace(z)
	for _, v := range z {
		if v != 0 {
			t.Errorf("constant feature should z-score to 0, got %v", z)
			break
		}
	}
}

func TestZScoreInPlaceMatchesZScore(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2.6}
	m, sd := Mean(xs), StdDev(xs)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = (x - m) / sd
	}
	got := append([]float64(nil), xs...)
	ZScoreInPlace(got)
	for i := range want {
		approx(t, got[i], want[i], 1e-12, "ZScoreInPlace")
	}
	ZScoreInPlace(nil) // must not panic
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	approx(t, Correlation(xs, ys), 1, 1e-12, "perfect positive")
	neg := []float64{8, 6, 4, 2}
	approx(t, Correlation(xs, neg), -1, 1e-12, "perfect negative")
	if !math.IsNaN(Correlation(xs, []float64{1, 1, 1, 1})) {
		t.Error("zero-variance correlation should be NaN")
	}
	if !math.IsNaN(Correlation(xs, ys[:2])) {
		t.Error("length mismatch should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0}
	h := HistogramInto(make([]int, 2), xs)
	if len(h) != 2 {
		t.Fatalf("want 2 bins, got %d", len(h))
	}
	// Bins are [0, 0.5) and [0.5, 1]: 0 and 0.1 fall low; 0.5, 0.9, 1.0 high.
	if h[0] != 2 || h[1] != 3 {
		t.Errorf("Histogram = %v, want [2 3]", h)
	}
	if HistogramInto(make([]int, 3), nil) != nil {
		t.Error("Histogram(nil) should be nil")
	}
	if HistogramInto(nil, xs) != nil {
		t.Error("Histogram with 0 bins should be nil")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := HistogramInto(make([]int, 4), []float64{2, 2, 2})
	if h[0] != 3 {
		t.Errorf("degenerate histogram should pile into bin 0, got %v", h)
	}
}

func TestHistogramTotalPreserved(t *testing.T) {
	f := func(raw []float64, nbins uint8) bool {
		n := int(nbins%16) + 1
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			xs = append(xs, r)
		}
		h := HistogramInto(make([]int, n), xs)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
