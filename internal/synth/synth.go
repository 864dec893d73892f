// Package synth generates deterministic synthetic scalp-EEG signals that
// stand in for the access-gated CHB-MIT corpus. The generator produces the
// phenomena the paper's pipeline keys on: 1/f background activity with an
// alpha rhythm, rhythmic spike-wave seizure discharges with elevated
// delta/theta power and reduced signal complexity, and high-amplitude
// artifact bursts ("large bursts of noise") that the paper identifies as
// the cause of its three mislabeled seizures.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"selflearn/internal/signal"
)

// BackgroundConfig parameterises seizure-free EEG.
type BackgroundConfig struct {
	// NoiseRMS is the target RMS of the 1/f noise floor in µV.
	NoiseRMS float64
	// AlphaAmp is the amplitude of the posterior alpha rhythm in µV.
	AlphaAmp float64
	// AlphaFreq is the alpha rhythm frequency in Hz.
	AlphaFreq float64
	// ThetaAmp is the amplitude of background theta activity in µV
	// (small in awake adults).
	ThetaAmp float64
}

// DefaultBackground returns physiologically plausible awake-EEG defaults.
func DefaultBackground() BackgroundConfig {
	return BackgroundConfig{NoiseRMS: 12, AlphaAmp: 18, AlphaFreq: 10, ThetaAmp: 4}
}

// SeizureConfig parameterises an ictal (seizure) discharge.
type SeizureConfig struct {
	// Amp is the peak amplitude of the spike-wave complex in µV.
	Amp float64
	// StartFreq and EndFreq bound the discharge frequency in Hz; ictal
	// rhythms typically slow from ~5-6 Hz toward ~3 Hz.
	StartFreq float64
	EndFreq   float64
	// SpikeSharpness controls the spike width (larger = sharper).
	SpikeSharpness float64
	// RampFraction is the fraction of the seizure spent ramping the
	// envelope up at onset (and down at offset).
	RampFraction float64
}

// DefaultSeizure returns a canonical spike-wave configuration.
func DefaultSeizure() SeizureConfig {
	return SeizureConfig{Amp: 120, StartFreq: 5.5, EndFreq: 3.2, SpikeSharpness: 18, RampFraction: 0.12}
}

// ArtifactConfig parameterises a noise burst (electrode movement / EMG).
type ArtifactConfig struct {
	// Amp is the artifact amplitude in µV; large bursts dwarf the EEG.
	Amp float64
	// Duration is the burst length in seconds.
	Duration float64
	// HighFreq selects muscle-like (true, broadband high frequency) or
	// movement-like (false, large slow swing) morphology.
	HighFreq bool
}

// pinkNoise is Paul Kellet's economy 1/f filter driven by Gaussian white
// noise.
type pinkNoise struct {
	rng        *rand.Rand
	b0, b1, b2 float64
}

func (p *pinkNoise) next() float64 {
	w := p.rng.NormFloat64()
	p.b0 = 0.99765*p.b0 + w*0.0990460
	p.b1 = 0.96300*p.b1 + w*0.2965164
	p.b2 = 0.57000*p.b2 + w*1.0526913
	return p.b0 + p.b1 + p.b2 + w*0.1848
}

// Background synthesizes n samples of seizure-free EEG at fs Hz.
func Background(rng *rand.Rand, n int, fs float64, cfg BackgroundConfig) []float64 {
	out := make([]float64, n)
	pink := &pinkNoise{rng: rng}
	// Calibrate the pink-noise gain empirically over the first pass.
	raw := make([]float64, n)
	var ss float64
	for i := range raw {
		raw[i] = pink.next()
		ss += raw[i] * raw[i]
	}
	rms := math.Sqrt(ss / float64(maxInt(n, 1)))
	gain := 0.0
	if rms > 0 {
		gain = cfg.NoiseRMS / rms
	}
	// Alpha rhythm with slow random amplitude modulation (waxing and
	// waning spindles) and theta undertone.
	alphaPhase := rng.Float64() * 2 * math.Pi
	thetaPhase := rng.Float64() * 2 * math.Pi
	mod := 0.5
	for i := range out {
		t := float64(i) / fs
		// Random-walk modulation clipped to [0.2, 1].
		mod += 0.002 * rng.NormFloat64()
		if mod < 0.2 {
			mod = 0.2
		}
		if mod > 1 {
			mod = 1
		}
		alpha := cfg.AlphaAmp * mod * math.Sin(2*math.Pi*cfg.AlphaFreq*t+alphaPhase)
		theta := cfg.ThetaAmp * math.Sin(2*math.Pi*5.0*t+thetaPhase)
		out[i] = gain*raw[i] + alpha + theta
	}
	return out
}

// AddSeizure superimposes a spike-wave discharge on data in the sample
// range [start, start+durSamples). The discharge chirps from
// cfg.StartFreq to cfg.EndFreq with an onset/offset envelope ramp.
func AddSeizure(rng *rand.Rand, data []float64, start, durSamples int, fs float64, cfg SeizureConfig) error {
	if start < 0 || durSamples <= 0 || start+durSamples > len(data) {
		return fmt.Errorf("synth: seizure [%d, %d) outside data of %d samples", start, start+durSamples, len(data))
	}
	phase := rng.Float64() * 2 * math.Pi
	ramp := cfg.RampFraction
	if ramp <= 0 || ramp > 0.5 {
		ramp = 0.12
	}
	for i := 0; i < durSamples; i++ {
		frac := float64(i) / float64(durSamples)
		freq := cfg.StartFreq + (cfg.EndFreq-cfg.StartFreq)*frac
		phase += 2 * math.Pi * freq / fs
		// Envelope: raised-cosine ramps at both ends.
		env := 1.0
		if frac < ramp {
			env = 0.5 * (1 - math.Cos(math.Pi*frac/ramp))
		} else if frac > 1-ramp {
			env = 0.5 * (1 - math.Cos(math.Pi*(1-frac)/ramp))
		}
		// Spike-and-wave morphology: slow wave plus a sharp Gaussian
		// spike once per cycle.
		cyc := math.Mod(phase, 2*math.Pi)
		spike := math.Exp(-cfg.SpikeSharpness * (cyc - math.Pi) * (cyc - math.Pi) / (2 * math.Pi))
		wave := math.Sin(phase)
		// Mild cycle-to-cycle amplitude jitter keeps it organic.
		jitter := 1 + 0.05*rng.NormFloat64()
		data[start+i] += cfg.Amp * env * jitter * (0.55*wave + 0.45*spike)
	}
	return nil
}

// AddArtifact superimposes a noise burst at sample range
// [start, start+duration·fs).
func AddArtifact(rng *rand.Rand, data []float64, start int, fs float64, cfg ArtifactConfig) error {
	durSamples := int(cfg.Duration * fs)
	if start < 0 || durSamples <= 0 || start+durSamples > len(data) {
		return fmt.Errorf("synth: artifact [%d, %d) outside data of %d samples", start, start+durSamples, len(data))
	}
	phase := rng.Float64() * 2 * math.Pi
	for i := 0; i < durSamples; i++ {
		frac := float64(i) / float64(durSamples)
		env := math.Sin(math.Pi * frac) // smooth in/out
		var v float64
		if cfg.HighFreq {
			v = rng.NormFloat64() // broadband EMG-like
		} else {
			// Large slow electrode swing with erratic wobble.
			v = math.Sin(2*math.Pi*0.6*float64(i)/fs+phase) + 0.3*rng.NormFloat64()
		}
		data[start+i] += cfg.Amp * env * v
	}
	return nil
}

// RecordConfig describes one synthetic recording.
type RecordConfig struct {
	PatientID  string
	RecordID   string
	Seed       int64
	Duration   float64 // seconds
	SampleRate float64 // Hz; 0 means signal.DefaultSampleRate
	Background BackgroundConfig
	// Seizures to inject, expressed in seconds.
	Seizures []SeizureEvent
	// Artifacts to inject, expressed in seconds.
	Artifacts []ArtifactEvent
}

// SeizureEvent places one seizure.
type SeizureEvent struct {
	Start    float64 // seconds
	Duration float64 // seconds
	Config   SeizureConfig
}

// ArtifactEvent places one artifact burst.
type ArtifactEvent struct {
	Start  float64 // seconds
	Config ArtifactConfig
}

// Generate renders the configured recording with the two wearable
// electrode-pair channels, F7T3 and F8T4. The seizure source projects
// into both channels with different gains (focal discharges are rarely
// symmetric); backgrounds are independent per channel.
func Generate(cfg RecordConfig) (*signal.Recording, error) {
	fs := cfg.SampleRate
	if fs == 0 {
		fs = signal.DefaultSampleRate
	}
	if fs <= 0 {
		return nil, fmt.Errorf("synth: invalid sample rate %g", fs)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("synth: invalid duration %g", cfg.Duration)
	}
	n := int(cfg.Duration * fs)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ch0 := Background(rng, n, fs, cfg.Background)
	ch1 := Background(rng, n, fs, cfg.Background)
	rec := &signal.Recording{
		PatientID:  cfg.PatientID,
		RecordID:   cfg.RecordID,
		SampleRate: fs,
		Channels:   []string{signal.ChannelF7T3, signal.ChannelF8T4},
		Data:       [][]float64{ch0, ch1},
	}
	for _, ev := range cfg.Seizures {
		start := int(ev.Start * fs)
		dur := int(ev.Duration * fs)
		// Render the discharge once and project into both channels so
		// they stay coherent.
		src := make([]float64, n)
		if err := AddSeizure(rng, src, start, dur, fs, ev.Config); err != nil {
			return nil, err
		}
		for i := start; i < start+dur && i < n; i++ {
			ch0[i] += src[i]
			ch1[i] += 0.75 * src[i]
		}
		rec.Seizures = append(rec.Seizures, signal.Interval{Start: ev.Start, End: ev.Start + ev.Duration})
	}
	for _, ev := range cfg.Artifacts {
		start := int(ev.Start * fs)
		// Artifacts hit both electrodes (movement is mechanical).
		if err := AddArtifact(rng, ch0, start, fs, ev.Config); err != nil {
			return nil, err
		}
		if err := AddArtifact(rng, ch1, start, fs, ev.Config); err != nil {
			return nil, err
		}
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
