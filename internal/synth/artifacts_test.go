package synth

import (
	"math"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/window"
	"selflearn/internal/stats"
)

func TestAddBlinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := 256.0
	data := make([]float64, 120*int(fs))
	if err := AddBlinks(rng, data, 0, len(data), fs, DefaultBlink()); err != nil {
		t.Fatal(err)
	}
	// Blinks are positive deflections near the configured amplitude.
	if peak := stats.Max(data); peak < 0.8*DefaultBlink().Amp {
		t.Errorf("peak %g, want near %g", peak, DefaultBlink().Amp)
	}
	// Roughly Rate·duration blinks: count threshold crossings.
	count := 0
	above := false
	for _, v := range data {
		if v > DefaultBlink().Amp/2 {
			if !above {
				count++
				above = true
			}
		} else {
			above = false
		}
	}
	want := DefaultBlink().Rate * 120
	if float64(count) < want/3 || float64(count) > want*3 {
		t.Errorf("%d blinks in 120 s, want ≈%g", count, want)
	}
}

func TestAddBlinksErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 100)
	if err := AddBlinks(rng, data, -1, 50, 256, DefaultBlink()); err == nil {
		t.Error("negative start should fail")
	}
	if err := AddBlinks(rng, data, 0, 200, 256, DefaultBlink()); err == nil {
		t.Error("overflow should fail")
	}
	bad := DefaultBlink()
	bad.Width = 0
	if err := AddBlinks(rng, data, 0, 100, 256, bad); err == nil {
		t.Error("zero width should fail")
	}
	quiet := DefaultBlink()
	quiet.Rate = 0
	if err := AddBlinks(rng, data, 0, 100, 256, quiet); err != nil {
		t.Errorf("zero rate should be a no-op, got %v", err)
	}
}

func TestAddChewingSpectralSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fs := 256.0
	data := make([]float64, 60*int(fs))
	if err := AddChewing(rng, data, 0, len(data), fs, DefaultChew()); err != nil {
		t.Fatal(err)
	}
	psd, err := spectrum.Welch(data, fs, 1024, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Broadband EMG: beta+gamma share should be substantial.
	high := psd.RelativeBandPower(spectrum.Beta) + psd.RelativeBandPower(spectrum.Gamma)
	if high < 0.5 {
		t.Errorf("chewing EMG should be high-frequency dominant, share %g", high)
	}
}

func TestAddChewingRhythm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fs := 256.0
	data := make([]float64, 20*int(fs))
	cfg := ChewConfig{Amp: 50, Rate: 2, BurstFraction: 0.3}
	if err := AddChewing(rng, data, 0, len(data), fs, cfg); err != nil {
		t.Fatal(err)
	}
	// Quiet phases between bursts stay zero.
	period := int(fs / cfg.Rate)
	quietIdx := int(0.7 * float64(period)) // well inside the quiet phase
	for c := 0; c < 10; c++ {
		if data[c*period+quietIdx] != 0 {
			t.Fatalf("quiet phase contaminated at cycle %d", c)
		}
	}
}

func TestAddChewingErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 100)
	if err := AddChewing(rng, data, 0, 200, 256, DefaultChew()); err == nil {
		t.Error("overflow should fail")
	}
	bad := DefaultChew()
	bad.Rate = 0
	if err := AddChewing(rng, data, 0, 100, 256, bad); err == nil {
		t.Error("zero rate should fail")
	}
	bad = DefaultChew()
	bad.BurstFraction = 1.5
	if err := AddChewing(rng, data, 0, 100, 256, bad); err == nil {
		t.Error("burst fraction > 1 should fail")
	}
}

func TestAddDropout(t *testing.T) {
	fs := 256.0
	data := make([]float64, 30*int(fs))
	for i := range data {
		data[i] = 10
	}
	cfg := DropoutConfig{Duration: 10, Level: -12.5}
	if err := AddDropout(data, 5*int(fs), fs, cfg); err != nil {
		t.Fatal(err)
	}
	lo, hi := 5*int(fs), 15*int(fs)
	for i := lo; i < hi; i++ {
		if data[i] != cfg.Level {
			t.Fatalf("sample %d = %g inside dropout, want %g", i, data[i], cfg.Level)
		}
	}
	// The overwrite is exact: neighbors untouched.
	if data[lo-1] != 10 || data[hi] != 10 {
		t.Fatalf("dropout bled outside [%d, %d)", lo, hi)
	}

	if err := AddDropout(data, -1, fs, cfg); err == nil {
		t.Error("negative start should fail")
	}
	if err := AddDropout(data, 25*int(fs), fs, cfg); err == nil {
		t.Error("overflow should fail")
	}
	if err := AddDropout(data, 0, fs, DropoutConfig{Duration: 0}); err == nil {
		t.Error("zero duration should fail")
	}
}

// renderContaminated drives every artifact generator over one buffer
// from a single seeded RNG — the way scenario contamination composes
// them.
func renderContaminated(t *testing.T, seed int64) []float64 {
	t.Helper()
	fs := 256.0
	n := 60 * int(fs)
	rng := rand.New(rand.NewSource(seed))
	data := Background(rng, n, fs, DefaultBackground())
	if err := AddBlinks(rng, data, 0, n, fs, DefaultBlink()); err != nil {
		t.Fatal(err)
	}
	if err := AddChewing(rng, data, 0, n, fs, DefaultChew()); err != nil {
		t.Fatal(err)
	}
	if err := AddArtifact(rng, data, 20*int(fs), fs, ArtifactConfig{Amp: 800, Duration: 5, HighFreq: true}); err != nil {
		t.Fatal(err)
	}
	if err := AddDropout(data, 40*int(fs), fs, DropoutConfig{Duration: 10, Level: 0}); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactStreamDeterminism pins the property every seeded scenario
// rests on: the same seed renders a bit-identical contaminated stream,
// and a different seed does not.
func TestArtifactStreamDeterminism(t *testing.T) {
	a := renderContaminated(t, 42)
	b := renderContaminated(t, 42)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("sample %d differs bitwise: %x vs %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	c := renderContaminated(t, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestBlinksDoNotDerailLabeling(t *testing.T) {
	// Routine blinks must not hijack the distance argmax the way the
	// outlier bursts do: their per-window energy is far below ictal
	// levels. This is the property that separates everyday artifacts
	// from the Table II failure mode.
	rng := rand.New(rand.NewSource(6))
	fs := 256.0
	n := 600 * int(fs)
	bg := Background(rng, n, fs, DefaultBackground())
	if err := AddSeizure(rng, bg, 300*int(fs), 50*int(fs), fs, DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	if err := AddBlinks(rng, bg, 0, n, fs, DefaultBlink()); err != nil {
		t.Fatal(err)
	}
	// The ictal span still has far larger RMS than any blink-only span.
	ictal := stats.RMS(bg[310*int(fs) : 340*int(fs)])
	blinky := stats.RMS(bg[60*int(fs) : 90*int(fs)])
	if ictal < 2*blinky {
		t.Errorf("ictal RMS %g vs blink background %g: separation lost", ictal, blinky)
	}
}
