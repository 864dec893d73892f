// Package stft computes short-time Fourier transforms (spectrograms),
// the standard way to visualize how an EEG's spectral content evolves
// through a seizure: ictal rhythms show up as a high-power low-frequency
// band with a characteristic downward chirp.
package stft

import (
	"errors"
	"fmt"
	"math"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/window"
)

// Spectrogram is a time-frequency power map.
type Spectrogram struct {
	// Power[t][k] is the PSD of frame t at frequency bin k.
	Power [][]float64
	// BinWidth is the frequency resolution in Hz.
	BinWidth float64
	// HopSeconds is the frame spacing in seconds.
	HopSeconds float64
	// StartOffset is the center time of frame 0 in seconds.
	StartOffset float64
}

// Frames returns the number of time frames.
func (s *Spectrogram) Frames() int { return len(s.Power) }

// FrameTime returns the center time in seconds of frame t.
func (s *Spectrogram) FrameTime(t int) float64 {
	return s.StartOffset + float64(t)*s.HopSeconds
}

// Compute calculates the spectrogram of xs sampled at fs Hz with frames
// of winSamples and a hop of hopSamples, tapered by taper.
func Compute(xs []float64, fs float64, winSamples, hopSamples int, taper window.Func) (*Spectrogram, error) {
	if len(xs) == 0 {
		return nil, errors.New("stft: empty signal")
	}
	if fs <= 0 {
		return nil, fmt.Errorf("stft: invalid sampling rate %g", fs)
	}
	if winSamples <= 0 || hopSamples <= 0 {
		return nil, fmt.Errorf("stft: invalid framing %d/%d", winSamples, hopSamples)
	}
	if len(xs) < winSamples {
		return nil, fmt.Errorf("stft: signal of %d samples shorter than one %d-sample frame", len(xs), winSamples)
	}
	sg := &Spectrogram{
		HopSeconds:  float64(hopSamples) / fs,
		StartOffset: float64(winSamples) / fs / 2,
	}
	for start := 0; start+winSamples <= len(xs); start += hopSamples {
		psd, err := spectrum.Periodogram(xs[start:start+winSamples], fs, taper)
		if err != nil {
			return nil, err
		}
		if sg.BinWidth == 0 {
			sg.BinWidth = psd.BinWidth
		}
		sg.Power = append(sg.Power, psd.Power)
	}
	return sg, nil
}

// LogCompress returns a copy of the power map compressed to decibels
// relative to the maximum bin, floored at floorDB (e.g. -60), which is
// what renderers display.
func (s *Spectrogram) LogCompress(floorDB float64) [][]float64 {
	maxP := 0.0
	for _, frame := range s.Power {
		for _, p := range frame {
			if p > maxP {
				maxP = p
			}
		}
	}
	out := make([][]float64, len(s.Power))
	for t, frame := range s.Power {
		row := make([]float64, len(frame))
		for k, p := range frame {
			if maxP <= 0 || p <= 0 {
				row[k] = floorDB
				continue
			}
			db := 10 * math.Log10(p/maxP)
			if db < floorDB {
				db = floorDB
			}
			row[k] = db
		}
		out[t] = row
	}
	return out
}
