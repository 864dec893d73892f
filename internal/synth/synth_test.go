package synth

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/window"
	"selflearn/internal/entropy"
	"selflearn/internal/signal"
	"selflearn/internal/stats"
)

func TestBackgroundStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultBackground()
	xs := Background(rng, 60*256, 256, cfg)
	if len(xs) != 60*256 {
		t.Fatalf("length %d", len(xs))
	}
	m := stats.Mean(xs)
	if math.Abs(m) > 5 {
		t.Errorf("background mean %g µV, want ≈0", m)
	}
	r := stats.RMS(xs)
	if r < 5 || r > 60 {
		t.Errorf("background RMS %g µV outside plausible EEG range", r)
	}
}

func TestBackgroundAlphaDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := Background(rng, 120*256, 256, DefaultBackground())
	psd, err := spectrum.Welch(xs, 256, 2048, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	alpha := psd.BandPower(spectrum.Alpha)
	theta := psd.BandPower(spectrum.Theta)
	if alpha <= theta {
		t.Errorf("awake background should be alpha-dominant: alpha %g vs theta %g", alpha, theta)
	}
}

func TestBackgroundDeterministic(t *testing.T) {
	a := Background(rand.New(rand.NewSource(7)), 1000, 256, DefaultBackground())
	b := Background(rand.New(rand.NewSource(7)), 1000, 256, DefaultBackground())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the signal")
		}
	}
	c := Background(rand.New(rand.NewSource(8)), 1000, 256, DefaultBackground())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestAddSeizureSpectralSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := 256.0
	n := 120 * int(fs)
	bg := Background(rng, n, fs, DefaultBackground())
	ictal := append([]float64(nil), bg...)
	if err := AddSeizure(rng, ictal, 30*int(fs), 60*int(fs), fs, DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	seg := ictal[40*int(fs) : 80*int(fs)] // fully ictal span
	ref := bg[40*int(fs) : 80*int(fs)]
	psdI, err := spectrum.Welch(seg, fs, 1024, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	psdB, err := spectrum.Welch(ref, fs, 1024, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Ictal theta+delta power must dwarf background theta+delta.
	ictalLow := psdI.BandPower(spectrum.Delta) + psdI.BandPower(spectrum.Theta)
	bgLow := psdB.BandPower(spectrum.Delta) + psdB.BandPower(spectrum.Theta)
	if ictalLow < 10*bgLow {
		t.Errorf("ictal low-band power %g should dominate background %g", ictalLow, bgLow)
	}
	// Relative theta must increase.
	if psdI.RelativeBandPower(spectrum.Theta) <= psdB.RelativeBandPower(spectrum.Theta) {
		t.Error("relative theta power should rise during the seizure")
	}
}

func TestSeizureReducesComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fs := 256.0
	n := 120 * int(fs)
	bg := Background(rng, n, fs, DefaultBackground())
	ictal := append([]float64(nil), bg...)
	if err := AddSeizure(rng, ictal, 30*int(fs), 60*int(fs), fs, DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	peIctal, err := new(entropy.Workspace).Permutation(ictal[40*int(fs):70*int(fs)], 5)
	if err != nil {
		t.Fatal(err)
	}
	peBg, err := new(entropy.Workspace).Permutation(bg[40*int(fs):70*int(fs)], 5)
	if err != nil {
		t.Fatal(err)
	}
	if peIctal >= peBg {
		t.Errorf("ictal permutation entropy %g should fall below background %g", peIctal, peBg)
	}
}

func TestAddSeizureBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 1000)
	if err := AddSeizure(rng, data, -1, 100, 256, DefaultSeizure()); err == nil {
		t.Error("negative start should fail")
	}
	if err := AddSeizure(rng, data, 950, 100, 256, DefaultSeizure()); err == nil {
		t.Error("overflow should fail")
	}
	if err := AddSeizure(rng, data, 0, 0, 256, DefaultSeizure()); err == nil {
		t.Error("zero duration should fail")
	}
}

// movementArtifact is a large electrode-movement burst.
var movementArtifact = ArtifactConfig{Amp: 400, Duration: 18, HighFreq: false}

func TestAddArtifactAmplitude(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fs := 256.0
	data := make([]float64, 60*int(fs))
	cfg := movementArtifact
	if err := AddArtifact(rng, data, 10*int(fs), fs, cfg); err != nil {
		t.Fatal(err)
	}
	peak := stats.Max(data)
	if peak < cfg.Amp/3 {
		t.Errorf("artifact peak %g too small for amp %g", peak, cfg.Amp)
	}
	// Samples outside the burst remain zero.
	if data[0] != 0 || data[len(data)-1] != 0 {
		t.Error("artifact leaked outside its interval")
	}
}

func TestAddArtifactHighFreq(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	fs := 256.0
	data := make([]float64, 60*int(fs))
	cfg := ArtifactConfig{Amp: 200, Duration: 10, HighFreq: true}
	if err := AddArtifact(rng, data, 20*int(fs), fs, cfg); err != nil {
		t.Fatal(err)
	}
	seg := data[22*int(fs) : 28*int(fs)]
	psd, err := spectrum.Welch(seg, fs, 512, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Broadband burst: substantial power above 30 Hz.
	if psd.RelativeBandPower(spectrum.Gamma) < 0.3 {
		t.Errorf("high-frequency artifact should be broadband, gamma share %g", psd.RelativeBandPower(spectrum.Gamma))
	}
}

func TestAddArtifactBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	data := make([]float64, 100)
	if err := AddArtifact(rng, data, 0, 256, ArtifactConfig{Amp: 1, Duration: 10}); err == nil {
		t.Error("burst longer than data should fail")
	}
	if err := AddArtifact(rng, data, -5, 256, movementArtifact); err == nil {
		t.Error("negative start should fail")
	}
}

func TestGenerateRecord(t *testing.T) {
	rec, err := Generate(RecordConfig{
		PatientID:  "chb01",
		RecordID:   "r1",
		Seed:       42,
		Duration:   300,
		Background: DefaultBackground(),
		Seizures: []SeizureEvent{
			{Start: 100, Duration: 50, Config: DefaultSeizure()},
		},
		Artifacts: []ArtifactEvent{
			{Start: 200, Config: movementArtifact},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Channels) != 2 || rec.Channels[0] != signal.ChannelF7T3 {
		t.Errorf("channels = %v", rec.Channels)
	}
	if rec.Duration() != 300 {
		t.Errorf("duration = %g", rec.Duration())
	}
	if len(rec.Seizures) != 1 || rec.Seizures[0] != (signal.Interval{Start: 100, End: 150}) {
		t.Errorf("seizures = %v", rec.Seizures)
	}
	// Seizure present on both channels, weaker on F8T4.
	fs := int(rec.SampleRate)
	rms := func(xs []float64) float64 { return stats.RMS(xs) }
	s0 := rms(rec.Data[0][110*fs : 140*fs])
	s1 := rms(rec.Data[1][110*fs : 140*fs])
	b0 := rms(rec.Data[0][10*fs : 40*fs])
	if s0 < 2*b0 {
		t.Errorf("seizure RMS %g should exceed background %g substantially", s0, b0)
	}
	if s1 >= s0 {
		t.Errorf("F8T4 projection %g should be weaker than F7T3 %g", s1, s0)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := RecordConfig{
		PatientID: "p", RecordID: "r", Seed: 9, Duration: 30,
		Background: DefaultBackground(),
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Data {
		for i := range a.Data[c] {
			if a.Data[c][i] != b.Data[c][i] {
				t.Fatal("generation must be deterministic in the seed")
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(RecordConfig{Duration: 0}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Generate(RecordConfig{Duration: 10, SampleRate: -1}); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := Generate(RecordConfig{
		Duration:   10,
		Background: DefaultBackground(),
		Seizures:   []SeizureEvent{{Start: 5, Duration: 30, Config: DefaultSeizure()}},
	}); err == nil {
		t.Error("seizure past the end should fail")
	}
}
