package stft

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/window"
	"selflearn/internal/synth"
)

func chirp(fs float64, n int, f0, f1 float64) []float64 {
	xs := make([]float64, n)
	phase := 0.0
	for i := range xs {
		frac := float64(i) / float64(n)
		f := f0 + (f1-f0)*frac
		phase += 2 * math.Pi * f / fs
		xs[i] = math.Sin(phase)
	}
	return xs
}

func TestComputeShape(t *testing.T) {
	const fs = 256.0
	xs := chirp(fs, 60*256, 20, 5)
	sg, err := Compute(xs, fs, 1024, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	// (60·256 - 1024)/256 + 1 = 57 frames.
	if sg.Frames() != 57 {
		t.Errorf("frames = %d, want 57", sg.Frames())
	}
	if len(sg.Power[0]) != 1024/2+1 {
		t.Errorf("bins = %d, want 513", len(sg.Power[0]))
	}
	if sg.HopSeconds != 1 {
		t.Errorf("hop = %g s", sg.HopSeconds)
	}
	if sg.FrameTime(0) != 2 {
		t.Errorf("frame 0 centered at %g s, want 2 s", sg.FrameTime(0))
	}
	if math.Abs(4*sg.BinWidth-1) > 1e-12 {
		t.Errorf("bin 4 at %g Hz, want 1 Hz (bin width 0.25)", 4*sg.BinWidth)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil, 256, 128, 64, window.Hann); err == nil {
		t.Error("empty signal should fail")
	}
	if _, err := Compute(make([]float64, 100), 0, 64, 32, window.Hann); err == nil {
		t.Error("fs=0 should fail")
	}
	if _, err := Compute(make([]float64, 100), 256, 0, 32, window.Hann); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := Compute(make([]float64, 100), 256, 64, 0, window.Hann); err == nil {
		t.Error("zero hop should fail")
	}
	if _, err := Compute(make([]float64, 10), 256, 64, 32, window.Hann); err == nil {
		t.Error("short signal should fail")
	}
}

// frame returns frame i of sg as a PSD.
func frame(sg *Spectrogram, i int) *spectrum.PSD {
	return &spectrum.PSD{Power: sg.Power[i], BinWidth: sg.BinWidth}
}

func TestDominantFrequencyTracksChirp(t *testing.T) {
	const fs = 256.0
	xs := chirp(fs, 120*256, 20, 5)
	sg, err := Compute(xs, fs, 1024, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	dom := make([]float64, sg.Frames())
	for i := range dom {
		dom[i] = spectrum.PeakFrequency(frame(sg, i), 1)
	}
	first, last := dom[0], dom[len(dom)-1]
	if first < 15 || first > 22 {
		t.Errorf("chirp start tracked at %g Hz, want ≈20", first)
	}
	if last < 4 || last > 8 {
		t.Errorf("chirp end tracked at %g Hz, want ≈5-6", last)
	}
	// Monotone-ish descent.
	if dom[len(dom)/2] >= first || dom[len(dom)/2] <= last-1 {
		t.Errorf("midpoint %g Hz should lie between %g and %g", dom[len(dom)/2], last, first)
	}
}

func TestBandSeriesDetectsSeizureEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fs := 256.0
	n := 300 * int(fs)
	bg := synth.Background(rng, n, fs, synth.DefaultBackground())
	if err := synth.AddSeizure(rng, bg, 120*int(fs), 60*int(fs), fs, synth.DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	sg, err := Compute(bg, fs, 1024, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	theta := make([]float64, sg.Frames())
	for i := range theta {
		theta[i] = frame(sg, i).BandPower(spectrum.Theta)
	}
	// Mean ictal theta (frames ~125-170) must dwarf background (~0-100).
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(theta[125:170]) < 5*mean(theta[:100]) {
		t.Errorf("ictal theta %g vs background %g", mean(theta[125:170]), mean(theta[:100]))
	}
}

func TestLogCompress(t *testing.T) {
	const fs = 256.0
	xs := chirp(fs, 20*256, 10, 10)
	sg, err := Compute(xs, fs, 512, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	db := sg.LogCompress(-60)
	maxDB := -1e9
	for _, row := range db {
		for _, v := range row {
			if v > maxDB {
				maxDB = v
			}
			if v < -60 || v > 0+1e-12 {
				t.Fatalf("dB value %g outside [-60, 0]", v)
			}
		}
	}
	if math.Abs(maxDB) > 1e-9 {
		t.Errorf("max should be 0 dB, got %g", maxDB)
	}
}

func TestLogCompressZeroSignal(t *testing.T) {
	sg := &Spectrogram{Power: [][]float64{{0, 0}}, BinWidth: 1}
	db := sg.LogCompress(-40)
	for _, v := range db[0] {
		if v != -40 {
			t.Error("zero power should clamp to the floor")
		}
	}
}
