package signal

import (
	"math"
	"math/rand"
	"testing"
)

func noisy(n int, amp float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = amp * rng.NormFloat64()
	}
	return xs
}

func TestAssessChannelGoodSignal(t *testing.T) {
	xs := noisy(60*256, 15, 1)
	r, err := AssessChannel(xs, 256, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Errorf("healthy EEG flagged bad: %+v", r)
	}
	if r.FlatlineFraction != 0 || r.ClippedFraction != 0 {
		t.Errorf("clean signal reports %+v", r)
	}
	if math.Abs(r.RMS-15) > 2 {
		t.Errorf("RMS = %g, want ≈15", r.RMS)
	}
}

// TestQualityAdmits pins the two-channel gate rule: a batch is refused
// when either channel fails, and an unassessable channel fails open.
func TestQualityAdmits(t *testing.T) {
	q := DefaultQuality()
	good, flat := noisy(256, 15, 1), make([]float64, 256)
	if !q.Admits(good, good, 256) {
		t.Error("healthy batch refused")
	}
	if q.Admits(good, flat, 256) || q.Admits(flat, good, 256) {
		t.Error("batch with a flatlined channel admitted")
	}
	if !q.Admits(nil, good, 256) || !q.Admits(flat, flat, 0) {
		t.Error("unassessable batch refused; the gate must fail open")
	}
}

func TestAssessChannelFlatline(t *testing.T) {
	xs := noisy(60*256, 15, 2)
	// Electrode falls off for 20 of 60 seconds.
	for i := 20 * 256; i < 40*256; i++ {
		xs[i] = 0.01
	}
	r, err := AssessChannel(xs, 256, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Error("33% flatline should fail")
	}
	if r.FlatlineFraction < 0.3 || r.FlatlineFraction > 0.4 {
		t.Errorf("flatline fraction %g, want ≈1/3", r.FlatlineFraction)
	}
}

func TestAssessChannelClipping(t *testing.T) {
	xs := noisy(30*256, 15, 3)
	for i := 0; i < len(xs); i += 10 { // 10% of samples pinned at rail
		xs[i] = 3500
	}
	r, err := AssessChannel(xs, 256, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Error("10% clipping should fail")
	}
	if math.Abs(r.ClippedFraction-0.1) > 0.01 {
		t.Errorf("clipped fraction %g, want ≈0.1", r.ClippedFraction)
	}
}

func TestAssessChannelErrors(t *testing.T) {
	if _, err := AssessChannel(nil, 256, DefaultQuality()); err == nil {
		t.Error("empty channel should fail")
	}
	if _, err := AssessChannel([]float64{1}, 0, DefaultQuality()); err == nil {
		t.Error("fs=0 should fail")
	}
	bad := DefaultQuality()
	bad.ClipLevel = 0
	if _, err := AssessChannel([]float64{1}, 256, bad); err == nil {
		t.Error("bad config should fail")
	}
	bad = DefaultQuality()
	bad.MaxFlatline = 2
	if bad.Validate() == nil {
		t.Error("fraction > 1 should fail")
	}
}

func TestAssessChannelShorterThanSegment(t *testing.T) {
	// Sub-second input still produces a report.
	r, err := AssessChannel(noisy(100, 10, 4), 256, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if r.FlatlineFraction != 0 {
		t.Errorf("noisy sub-second input flatline = %g", r.FlatlineFraction)
	}
}

// TestAssessChannelEdgeCases pins behavior on the degenerate inputs an
// adversarial stream can produce: fully dead or saturated channels,
// inputs at or below one segment, and fractional sampling rates. Every
// report must stay finite — these values feed stats counters and JSON
// rows.
func TestAssessChannelEdgeCases(t *testing.T) {
	fs := 256.0
	flat := make([]float64, 10*int(fs)) // all zeros: total flatline
	dc := make([]float64, 10*int(fs))   // flat at a DC offset: still dead
	for i := range dc {
		dc[i] = 500
	}
	clipped := make([]float64, 10*int(fs)) // every sample at a rail
	for i := range clipped {
		clipped[i] = 4000
		if i%2 == 0 {
			clipped[i] = -4000
		}
	}
	cases := []struct {
		name               string
		xs                 []float64
		rate               float64
		wantOK             bool
		wantFlat, wantClip float64
	}{
		{"all-flatline", flat, fs, false, 1, 0},
		{"dc-flatline", dc, fs, false, 1, 0},
		// Alternating rails have huge variance: clipped, not flatlined.
		{"all-clipped", clipped, fs, false, 0, 1},
		{"single-segment", noisy(int(fs), 10, 10), fs, true, 0, 0},
		// Below one segment the fallback assesses the whole input.
		{"sub-segment", noisy(int(fs)-1, 10, 11), fs, true, 0, 0},
		// A single sample is a constant, and a constant is a flatline.
		{"one-sample", []float64{42}, fs, false, 1, 0},
		// Sub-1 Hz rates clamp the segment to one sample.
		{"fractional-rate", noisy(10, 10, 12), 0.5, true, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := AssessChannel(tc.xs, tc.rate, DefaultQuality())
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range map[string]float64{
				"flatline": r.FlatlineFraction, "clipped": r.ClippedFraction, "rms": r.RMS,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %g, want finite", name, v)
				}
			}
			if r.OK != tc.wantOK {
				t.Errorf("OK = %v, want %v (%+v)", r.OK, tc.wantOK, r)
			}
			if r.FlatlineFraction != tc.wantFlat {
				t.Errorf("flatline fraction = %g, want %g", r.FlatlineFraction, tc.wantFlat)
			}
			if r.ClippedFraction != tc.wantClip {
				t.Errorf("clipped fraction = %g, want %g", r.ClippedFraction, tc.wantClip)
			}
		})
	}
	// Zero-length input is an error, never a garbage report.
	if _, err := AssessChannel([]float64{}, fs, DefaultQuality()); err == nil {
		t.Error("zero-length channel should fail")
	}
}

func TestAssessRecording(t *testing.T) {
	rec := testRecording(30)
	// Scale the sinusoids to plausible EEG amplitude.
	for c := range rec.Data {
		for i := range rec.Data[c] {
			rec.Data[c][i] *= 20
		}
	}
	reports, ok, err := AssessRecording(rec, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(reports) != 2 {
		t.Errorf("healthy recording: ok=%v reports=%d", ok, len(reports))
	}
	// Kill one channel.
	for i := range rec.Data[1] {
		rec.Data[1][i] = 0
	}
	_, ok, err = AssessRecording(rec, DefaultQuality())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("dead channel should fail the recording")
	}
	bad := &Recording{SampleRate: 256}
	if _, _, err := AssessRecording(bad, DefaultQuality()); err == nil {
		t.Error("invalid recording should fail")
	}
}
