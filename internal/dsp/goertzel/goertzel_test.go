package goertzel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/fft"
	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/window"
)

func sine(freq, fs float64, n int, amp float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = amp * math.Sin(2*math.Pi*freq*float64(i)/fs)
	}
	return xs
}

func TestPowerMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	const fs = 256.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	spec := make([]complex128, n)
	for i, v := range xs {
		spec[i] = complex(v, 0)
	}
	if err := fft.Forward(spec); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 7, 50, 128} {
		f := float64(k) * fs / n
		p, err := Power(xs, fs, f)
		if err != nil {
			t.Fatal(err)
		}
		want := cmplx.Abs(spec[k]) * cmplx.Abs(spec[k])
		if math.Abs(p-want) > 1e-6*math.Max(1, want) {
			t.Errorf("bin %d: goertzel %g vs fft %g", k, p, want)
		}
	}
}

func TestPowerTone(t *testing.T) {
	const fs = 256.0
	const n = 1024
	xs := sine(8, fs, n, 1) // exactly bin 32
	p, err := Power(xs, fs, 8)
	if err != nil {
		t.Fatal(err)
	}
	// |X(f0)|² of a unit sine over N samples is (N/2)².
	want := float64(n) * float64(n) / 4
	if math.Abs(p-want) > 1e-6*want {
		t.Errorf("tone power %g, want %g", p, want)
	}
	off, err := Power(xs, fs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if off > want/1e6 {
		t.Errorf("off-tone power %g should be negligible", off)
	}
}

func TestPowerErrors(t *testing.T) {
	if _, err := Power(nil, 256, 10); err == nil {
		t.Error("empty signal should fail")
	}
	if _, err := Power([]float64{1}, 0, 10); err == nil {
		t.Error("fs=0 should fail")
	}
	if _, err := Power([]float64{1}, 256, 200); err == nil {
		t.Error("f beyond Nyquist should fail")
	}
	if _, err := Power([]float64{1}, 256, -1); err == nil {
		t.Error("negative f should fail")
	}
}

func TestBandPowerMatchesPeriodogram(t *testing.T) {
	// With a rectangular window the Goertzel band integral equals the
	// periodogram band power.
	rng := rand.New(rand.NewSource(2))
	const fs = 256.0
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	psd, err := spectrum.Periodogram(xs, fs, window.Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []spectrum.Band{spectrum.Delta, spectrum.Theta, spectrum.Alpha} {
		gp, err := BandPower(xs, fs, b.Low, b.High)
		if err != nil {
			t.Fatal(err)
		}
		want := psd.BandPower(b)
		if math.Abs(gp-want) > 1e-6*math.Max(want, 1e-12) {
			t.Errorf("%s: goertzel %g vs periodogram %g", b.Name, gp, want)
		}
	}
}

func TestBandPowerErrors(t *testing.T) {
	xs := sine(6, 256, 512, 1)
	if _, err := BandPower(nil, 256, 4, 8); err == nil {
		t.Error("empty signal should fail")
	}
	if _, err := BandPower(xs, -1, 4, 8); err == nil {
		t.Error("bad fs should fail")
	}
	if _, err := BandPower(xs, 256, 8, 4); err == nil {
		t.Error("inverted band should fail")
	}
	if _, err := BandPower(xs, 256, 4, 300); err == nil {
		t.Error("band beyond Nyquist should fail")
	}
}

func TestDetectorStreaming(t *testing.T) {
	const fs = 256.0
	const block = 256
	det, err := NewDetector(fs, 8, block)
	if err != nil {
		t.Fatal(err)
	}
	xs := sine(8, fs, 3*block, 1)
	var powers []float64
	for _, x := range xs {
		if p, done := det.Push(x); done {
			powers = append(powers, p)
		}
	}
	if len(powers) != 3 {
		t.Fatalf("want 3 block results, got %d", len(powers))
	}
	// Each block of a unit 8 Hz tone carries (block/2)².
	want := float64(block) * float64(block) / 4
	for i, p := range powers {
		if math.Abs(p-want) > 0.05*want {
			t.Errorf("block %d power %g, want ≈%g", i, p, want)
		}
	}
	// A detector tuned away from the tone sees little power.
	away, err := NewDetector(fs, 30, block)
	if err != nil {
		t.Fatal(err)
	}
	var off float64
	for _, x := range xs[:block] {
		if p, done := away.Push(x); done {
			off = p
		}
	}
	if off > want/100 {
		t.Errorf("off-frequency detector power %g too high", off)
	}
}

func TestNewDetectorErrors(t *testing.T) {
	if _, err := NewDetector(0, 8, 10); err == nil {
		t.Error("fs=0 should fail")
	}
	if _, err := NewDetector(256, 300, 10); err == nil {
		t.Error("f beyond Nyquist should fail")
	}
	if _, err := NewDetector(256, 8, 0); err == nil {
		t.Error("block 0 should fail")
	}
}
