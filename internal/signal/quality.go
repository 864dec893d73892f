package signal

import (
	"fmt"
	"math"
)

// QualityConfig sets the thresholds for signal-quality assessment.
type QualityConfig struct {
	// FlatlineStd is the per-segment standard deviation (µV) below
	// which a one-second segment counts as flatlined (electrode off /
	// lead break).
	FlatlineStd float64
	// ClipLevel is the absolute amplitude (µV) at or above which a
	// sample counts as clipped/saturated at the front end.
	ClipLevel float64
	// MaxFlatline and MaxClipped are the acceptable fractions of
	// flatlined segments and clipped samples.
	MaxFlatline float64
	MaxClipped  float64
}

// DefaultQuality returns thresholds appropriate for a 24-bit EEG front
// end with µV-scale signals.
func DefaultQuality() QualityConfig {
	return QualityConfig{FlatlineStd: 0.5, ClipLevel: 3000, MaxFlatline: 0.1, MaxClipped: 0.02}
}

// Validate checks the configuration.
func (c QualityConfig) Validate() error {
	if c.FlatlineStd < 0 || c.ClipLevel <= 0 {
		return fmt.Errorf("signal: invalid quality thresholds %+v", c)
	}
	if c.MaxFlatline < 0 || c.MaxFlatline > 1 || c.MaxClipped < 0 || c.MaxClipped > 1 {
		return fmt.Errorf("signal: invalid quality fractions %+v", c)
	}
	return nil
}

// QualityReport summarizes the usability of one channel.
type QualityReport struct {
	// FlatlineFraction is the fraction of one-second segments whose
	// standard deviation falls below the flatline threshold.
	FlatlineFraction float64
	// ClippedFraction is the fraction of samples at or beyond the clip
	// level.
	ClippedFraction float64
	// RMS is the overall root mean square in µV.
	RMS float64
	// OK reports whether the channel passes the configured thresholds.
	OK bool
}

// Admits reports whether a synchronized two-channel batch at rate fs
// passes the quality gate: it is refused only when a channel is
// assessed and fails the thresholds. An unassessable channel (empty,
// bad rate) is not evidence of garbage: the gate fails open so a gate
// bug never silences a patient. The serving path's quality gate and
// the scenario engine's mirror of it both decide here.
func (c QualityConfig) Admits(c0, c1 []float64, fs float64) bool {
	for _, ch := range [][]float64{c0, c1} {
		if r, err := AssessChannel(ch, fs, c); err == nil && !r.OK {
			return false
		}
	}
	return true
}

// AssessChannel computes a quality report for one channel at rate fs.
func AssessChannel(xs []float64, fs float64, cfg QualityConfig) (QualityReport, error) {
	if err := cfg.Validate(); err != nil {
		return QualityReport{}, err
	}
	if len(xs) == 0 {
		return QualityReport{}, fmt.Errorf("signal: empty channel")
	}
	if fs <= 0 {
		return QualityReport{}, fmt.Errorf("signal: invalid sampling rate %g", fs)
	}
	seg := int(fs)
	if seg < 2 {
		// A segment under two samples has no variance, so flatline
		// segmentation would reject any signal; at such degenerate rates
		// assess the whole input as one segment instead.
		seg = len(xs)
	}
	var flat, segments int
	for start := 0; start+seg <= len(xs); start += seg {
		segments++
		if segStd(xs[start:start+seg]) < cfg.FlatlineStd {
			flat++
		}
	}
	if segments == 0 {
		segments = 1
		if segStd(xs) < cfg.FlatlineStd {
			flat = 1
		}
	}
	var clipped int
	var ss float64
	for _, v := range xs {
		if math.Abs(v) >= cfg.ClipLevel {
			clipped++
		}
		ss += v * v
	}
	r := QualityReport{
		FlatlineFraction: float64(flat) / float64(segments),
		ClippedFraction:  float64(clipped) / float64(len(xs)),
		RMS:              math.Sqrt(ss / float64(len(xs))),
	}
	r.OK = r.FlatlineFraction <= cfg.MaxFlatline && r.ClippedFraction <= cfg.MaxClipped
	return r, nil
}

func segStd(xs []float64) float64 {
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// AssessRecording runs AssessChannel over every channel and returns the
// per-channel reports; the recording passes only if every channel does.
func AssessRecording(rec *Recording, cfg QualityConfig) (map[string]QualityReport, bool, error) {
	if err := rec.Validate(); err != nil {
		return nil, false, err
	}
	out := make(map[string]QualityReport, len(rec.Channels))
	ok := true
	for i, name := range rec.Channels {
		r, err := AssessChannel(rec.Data[i], rec.SampleRate, cfg)
		if err != nil {
			return nil, false, err
		}
		out[name] = r
		ok = ok && r.OK
	}
	return out, ok, nil
}
