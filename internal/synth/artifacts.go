package synth

import (
	"fmt"
	"math"
	"math/rand"
)

// BlinkConfig parameterises eye-blink artifacts: stereotyped slow
// deflections (~300 ms) that dominate frontal electrode pairs such as
// F7T3 and are the most common benign EEG artifact.
type BlinkConfig struct {
	// Amp is the peak deflection in µV.
	Amp float64
	// Width is the blink duration in seconds.
	Width float64
	// Rate is the average blink rate in blinks per second.
	Rate float64
}

// DefaultBlink returns a typical awake blink pattern (~12 blinks/min).
func DefaultBlink() BlinkConfig {
	return BlinkConfig{Amp: 120, Width: 0.3, Rate: 0.2}
}

// AddBlinks superimposes randomly timed eye blinks over the sample range
// [start, start+durSamples).
func AddBlinks(rng *rand.Rand, data []float64, start, durSamples int, fs float64, cfg BlinkConfig) error {
	if start < 0 || durSamples <= 0 || start+durSamples > len(data) {
		return fmt.Errorf("synth: blink range [%d, %d) outside data of %d samples", start, start+durSamples, len(data))
	}
	if cfg.Width <= 0 || cfg.Rate < 0 {
		return fmt.Errorf("synth: invalid blink config %+v", cfg)
	}
	widthSamples := int(cfg.Width * fs)
	if widthSamples < 2 {
		widthSamples = 2
	}
	// Poisson arrivals via exponential gaps.
	pos := start
	for {
		if cfg.Rate == 0 {
			break
		}
		gap := int(rng.ExpFloat64() / cfg.Rate * fs)
		pos += gap
		if pos+widthSamples >= start+durSamples {
			break
		}
		// Half-sine deflection with slight asymmetry (faster down-slope).
		for i := 0; i < widthSamples; i++ {
			frac := float64(i) / float64(widthSamples)
			shape := math.Sin(math.Pi * math.Pow(frac, 0.8))
			data[pos+i] += cfg.Amp * shape
		}
		pos += widthSamples
	}
	return nil
}

// DropoutConfig parameterises an electrode dropout: a lead break or a
// detached electrode leaves the channel reading a flat front-end level
// instead of brain activity.
type DropoutConfig struct {
	// Duration is the dropout length in seconds.
	Duration float64
	// Level is the DC level in µV the channel holds while disconnected
	// (an open input typically sits at a rail or near zero).
	Level float64
}

// AddDropout replaces the sample range [start, start+Duration·fs) with
// the flat disconnect level. Unlike the additive artifacts it overwrites
// the signal: a disconnected electrode records nothing, which is exactly
// the flatline morphology quality assessment keys on.
func AddDropout(data []float64, start int, fs float64, cfg DropoutConfig) error {
	durSamples := int(cfg.Duration * fs)
	if start < 0 || durSamples <= 0 || start+durSamples > len(data) {
		return fmt.Errorf("synth: dropout [%d, %d) outside data of %d samples", start, start+durSamples, len(data))
	}
	for i := 0; i < durSamples; i++ {
		data[start+i] = cfg.Level
	}
	return nil
}

// ChewConfig parameterises chewing/bruxism artifacts: rhythmic broadband
// EMG bursts at ~1–2 Hz that ride on temporal electrodes.
type ChewConfig struct {
	// Amp is the EMG burst amplitude in µV.
	Amp float64
	// Rate is the chewing rate in Hz.
	Rate float64
	// BurstFraction is the duty cycle of each chew cycle spent bursting.
	BurstFraction float64
}

// DefaultChew returns a typical chewing pattern.
func DefaultChew() ChewConfig {
	return ChewConfig{Amp: 60, Rate: 1.5, BurstFraction: 0.4}
}

// AddChewing superimposes a chewing episode over the sample range
// [start, start+durSamples).
func AddChewing(rng *rand.Rand, data []float64, start, durSamples int, fs float64, cfg ChewConfig) error {
	if start < 0 || durSamples <= 0 || start+durSamples > len(data) {
		return fmt.Errorf("synth: chew range [%d, %d) outside data of %d samples", start, start+durSamples, len(data))
	}
	if cfg.Rate <= 0 || cfg.BurstFraction <= 0 || cfg.BurstFraction > 1 {
		return fmt.Errorf("synth: invalid chew config %+v", cfg)
	}
	period := fs / cfg.Rate
	for i := 0; i < durSamples; i++ {
		phase := math.Mod(float64(i), period) / period
		if phase < cfg.BurstFraction {
			// Envelope within the burst.
			env := math.Sin(math.Pi * phase / cfg.BurstFraction)
			data[start+i] += cfg.Amp * env * rng.NormFloat64()
		}
	}
	return nil
}
