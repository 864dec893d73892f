// Package features extracts the paper's feature sets from EEG recordings.
//
// Two banks are provided:
//
//   - The 10-feature set of Section III-A, used by the a-posteriori
//     labeling algorithm: frequency-band powers from electrode pair F7T3
//     and relative theta power plus DWT-subband entropies from electrode
//     pair F8T4, all computed over 4 s windows with 75 % overlap.
//
//   - A 54-features-per-electrode-pair bank in the style of the e-Glass
//     real-time detector (Sopic et al., reference [7]), used to train the
//     supervised random-forest classifier.
package features

import (
	"errors"
	"fmt"
	"math"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/wavelet"
	"selflearn/internal/signal"
	"selflearn/internal/stats"
)

// Matrix is a time-ordered feature matrix: Rows[i][f] is feature f of
// analysis window i. Windows are spaced by Window.Hop().
type Matrix struct {
	Names      []string
	Rows       [][]float64
	Window     signal.WindowSpec
	SampleRate float64
}

// NumRows returns the number of analysis windows.
func (m *Matrix) NumRows() int { return len(m.Rows) }

// NumFeatures returns the number of features per window.
func (m *Matrix) NumFeatures() int { return len(m.Names) }

// TimeOf returns the start time in seconds of window row i.
func (m *Matrix) TimeOf(i int) float64 {
	return m.Window.WindowStart(i, m.SampleRate)
}

// Select returns a new Matrix keeping only the given feature columns.
func (m *Matrix) Select(cols []int) (*Matrix, error) {
	out := &Matrix{Window: m.Window, SampleRate: m.SampleRate}
	for _, c := range cols {
		if c < 0 || c >= m.NumFeatures() {
			return nil, fmt.Errorf("features: column %d out of range", c)
		}
		out.Names = append(out.Names, m.Names[c])
	}
	for _, r := range m.Rows {
		nr := make([]float64, len(cols))
		for j, c := range cols {
			nr[j] = r[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// SliceRows returns a view Matrix of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi > len(m.Rows) || lo >= hi {
		return nil, fmt.Errorf("features: row slice [%d, %d) outside %d rows", lo, hi, len(m.Rows))
	}
	return &Matrix{
		Names:      m.Names,
		Rows:       m.Rows[lo:hi],
		Window:     m.Window,
		SampleRate: m.SampleRate,
	}, nil
}

// PaperFeatureNames lists the 10 features retained by the paper's
// backward elimination, in extraction order.
func PaperFeatureNames() []string {
	return []string{
		"F7T3/theta_power",            // total theta band power
		"F7T3/theta_rel_power",        // relative theta band power
		"F7T3/delta_power",            // total delta band power
		"F8T4/theta_rel_power",        // relative theta band power
		"F8T4/perm_entropy_L7_n5",     // level-7 permutation entropy, n=5
		"F8T4/perm_entropy_L7_n7",     // level-7 permutation entropy, n=7
		"F8T4/perm_entropy_L6_n7",     // level-6 permutation entropy, n=7
		"F8T4/renyi_entropy_L3",       // level-3 Rényi entropy
		"F8T4/sample_entropy_L6_k020", // level-6 sample entropy, k=0.2
		"F8T4/sample_entropy_L6_k035", // level-6 sample entropy, k=0.35
	}
}

// Config controls extraction.
type Config struct {
	Window signal.WindowSpec
	// Wavelet used for subband entropies (db4 in the paper).
	Wavelet wavelet.Wavelet
	// Level of the DWT decomposition (7 in the paper).
	Level int
	// RenyiAlpha is the Rényi entropy order (2 = collision entropy).
	RenyiAlpha float64
	// RenyiBins is the histogram resolution for Rényi/Shannon entropy.
	RenyiBins int
	// SampleM is the sample-entropy template length.
	SampleM int
}

// DefaultConfig returns the paper's configuration: 4 s windows, 75 %
// overlap, db4 DWT to level 7.
func DefaultConfig() Config {
	return Config{
		Window:     signal.DefaultWindow(),
		Wavelet:    wavelet.DB4,
		Level:      7,
		RenyiAlpha: 2,
		RenyiBins:  16,
		SampleM:    2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Window.Validate(); err != nil {
		return err
	}
	if c.Level < 1 {
		return fmt.Errorf("features: invalid DWT level %d", c.Level)
	}
	if c.RenyiAlpha <= 0 {
		return fmt.Errorf("features: invalid Rényi order %g", c.RenyiAlpha)
	}
	if c.RenyiBins <= 0 {
		return fmt.Errorf("features: invalid Rényi bins %d", c.RenyiBins)
	}
	if c.SampleM < 1 {
		return fmt.Errorf("features: invalid sample-entropy m %d", c.SampleM)
	}
	return nil
}

func requireTwoChannels(rec *signal.Recording) ([]float64, []float64, error) {
	if err := rec.Validate(); err != nil {
		return nil, nil, err
	}
	c0 := rec.Channel(signal.ChannelF7T3)
	c1 := rec.Channel(signal.ChannelF8T4)
	if c0 == nil || c1 == nil {
		return nil, nil, errors.New("features: recording must contain channels F7T3 and F8T4")
	}
	return c0, c1, nil
}

// Extract10 computes the paper's 10-feature matrix for rec.
func Extract10(rec *signal.Recording, cfg Config) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c0, c1, err := requireTwoChannels(rec)
	if err != nil {
		return nil, err
	}
	fs := rec.SampleRate
	nWin := cfg.Window.NumWindows(rec.Samples(), fs)
	if nWin == 0 {
		return nil, fmt.Errorf("features: recording of %g s shorter than one window", rec.Duration())
	}
	m := &Matrix{
		Names:      PaperFeatureNames(),
		Window:     cfg.Window,
		SampleRate: fs,
		Rows:       make([][]float64, 0, nWin),
	}
	ws, err := NewWorkspace(fs, cfg)
	if err != nil {
		return nil, err
	}
	// Consecutive windows start one hop apart, so after the first,
	// channel 2's DWT slides on the workspace's own decomposition, as a
	// streamer's does: only when the window is a power of two, whose
	// padding does not shift.
	slide, hop := 0, 0
	if ws.win&(ws.win-1) == 0 {
		hop = cfg.Window.HopSamples(fs)
	}
	for i := 0; i < nWin; i++ {
		w0, err := cfg.Window.Window(c0, i, fs)
		if err != nil {
			return nil, err
		}
		w1, err := cfg.Window.Window(c1, i, fs)
		if err != nil {
			return nil, err
		}
		row, err := ws.features10(make([]float64, 0, 10), w0, w1, nil, slide)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, row)
		slide = hop
	}
	return m, nil
}

// EGlassFeatureNames lists the 54 per-channel features of the extended
// bank, without channel prefix.
func EGlassFeatureNames() []string {
	names := []string{
		"mean", "variance", "rms", "skewness", "kurtosis",
		"min", "max", "peak_to_peak", "line_length", "zero_crossings",
		"hjorth_activity", "hjorth_mobility", "hjorth_complexity",
	}
	for _, b := range spectrum.ClinicalBands() {
		names = append(names, b.Name+"_power")
	}
	for _, b := range spectrum.ClinicalBands() {
		names = append(names, b.Name+"_rel_power")
	}
	names = append(names,
		"total_power", "sef95", "peak_freq", "spectral_entropy",
	)
	for l := 1; l <= 7; l++ {
		names = append(names, fmt.Sprintf("dwt_energy_L%d", l))
	}
	names = append(names, "dwt_energy_approx")
	for l := 1; l <= 7; l++ {
		names = append(names, fmt.Sprintf("dwt_rel_energy_L%d", l))
	}
	names = append(names, "dwt_rel_energy_approx",
		"perm_entropy_n3", "perm_entropy_n5",
		"sample_entropy_A3_k020", "renyi_entropy", "shannon_entropy",
		"perm_entropy_L6_n5", "perm_entropy_L7_n7", "renyi_entropy_L3",
		"sample_entropy_L6_k020", "sample_entropy_L6_k035",
		"teager_energy",
	)
	return names
}

// Extract54 computes the extended 54-features-per-channel matrix (108
// columns for the two electrode pairs), used to train the supervised
// real-time detector.
func Extract54(rec *signal.Recording, cfg Config) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c0, c1, err := requireTwoChannels(rec)
	if err != nil {
		return nil, err
	}
	fs := rec.SampleRate
	nWin := cfg.Window.NumWindows(rec.Samples(), fs)
	if nWin == 0 {
		return nil, fmt.Errorf("features: recording of %g s shorter than one window", rec.Duration())
	}
	base := EGlassFeatureNames()
	m := &Matrix{Window: cfg.Window, SampleRate: fs, Rows: make([][]float64, 0, nWin)}
	for _, ch := range []string{signal.ChannelF7T3, signal.ChannelF8T4} {
		for _, n := range base {
			m.Names = append(m.Names, ch+"/"+n)
		}
	}
	ws, err := NewWorkspace(fs, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nWin; i++ {
		w0, err := cfg.Window.Window(c0, i, fs)
		if err != nil {
			return nil, err
		}
		w1, err := cfg.Window.Window(c1, i, fs)
		if err != nil {
			return nil, err
		}
		row, err := ws.Features54Into(make([]float64, 0, 108), w0)
		if err != nil {
			return nil, err
		}
		row, err = ws.Features54Into(row, w1)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}

// lineLength is the summed absolute first difference, a classic seizure
// feature.
func lineLength(w []float64) float64 {
	var s float64
	for i := 1; i < len(w); i++ {
		s += math.Abs(w[i] - w[i-1])
	}
	return s
}

// zeroCrossings counts sign changes around the window mean.
func zeroCrossings(w []float64) int {
	if len(w) == 0 {
		return 0
	}
	m := stats.Mean(w)
	count := 0
	prev := w[0] - m
	for _, v := range w[1:] {
		cur := v - m
		if (prev < 0 && cur >= 0) || (prev >= 0 && cur < 0) {
			count++
		}
		prev = cur
	}
	return count
}

// spectralEntropy is the Shannon entropy of the normalized PSD.
func spectralEntropy(p *spectrum.PSD) float64 {
	var tot float64
	for _, v := range p.Power {
		tot += v
	}
	if tot == 0 {
		return 0
	}
	var h float64
	for _, v := range p.Power {
		if v > 0 {
			q := v / tot
			h -= q * math.Log(q)
		}
	}
	return h
}

// teagerEnergy is the mean Teager–Kaiser nonlinear energy.
func teagerEnergy(w []float64) float64 {
	if len(w) < 3 {
		return 0
	}
	var s float64
	for i := 1; i < len(w)-1; i++ {
		s += w[i]*w[i] - w[i-1]*w[i+1]
	}
	return s / float64(len(w)-2)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Labels assigns a binary label to every row of m given the annotated
// seizure intervals: a window is labeled seizure (true) when at least
// half of it overlaps a seizure.
func Labels(m *Matrix, seizures []signal.Interval) []bool {
	out := make([]bool, m.NumRows())
	winLen := m.Window.Length.Seconds()
	for i := range out {
		start := m.TimeOf(i)
		w := signal.Interval{Start: start, End: start + winLen}
		var overlap float64
		for _, s := range seizures {
			overlap += w.Overlap(s)
		}
		out[i] = overlap >= winLen/2
	}
	return out
}
