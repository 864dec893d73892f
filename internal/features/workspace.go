package features

import (
	"fmt"
	"math"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/wavelet"
	"selflearn/internal/dsp/window"
	"selflearn/internal/entropy"
	"selflearn/internal/stats"
)

// Workspace owns every buffer the per-window feature extractors need:
// the periodogram workspace (memoized Hann table + FFT buffer), the
// wavelet workspace (analysis filters + ping-pong decomposition
// buffers, including the PadPow2 copy), reusable decompositions, and
// the entropy scratch (ordinal tally, histogram, sorted-template
// index), plus the window linearization buffers and emission row of
// the Streamers built on it. After the first window it allocates
// nothing — the Go equivalent of the wearable firmware's fixed
// preallocated memory map — which is what keeps the serving hot path
// (features.Streamer → forest.FlatForest) allocation-free in steady
// state.
//
// A Workspace is bound to one sampling rate and window length and is
// not safe for concurrent use: one per goroutine; a serving worker's
// sessions share one.
type Workspace struct {
	fs  float64
	cfg Config
	win int

	spec       *spectrum.Workspace
	psd0, psd1 spectrum.PSD

	wl      *wavelet.Workspace
	bands   subbands              // the detail levels the 10-feature row reads
	dwt     *wavelet.Sliding      // channel 2's decomposition for rows of no carrying streamer
	dec     wavelet.Decomposition // level cfg.Level subband decomposition (54-bank)
	dec3    wavelet.Decomposition // separate level-3 pass when cfg.Level < 3
	approx3 []float64             // level-3 approximation for the 54-bank

	ent entropy.Workspace

	d1, d2 []float64 // Hjorth derivative scratch

	lin0, lin1 []float64 // streamer rings linearized oldest-first, win long
	row        []float64 // streamers' reused emission buffer, 10 wide
}

// NewWorkspace builds a feature-extraction workspace for sampling rate
// fs. Buffers are sized on first use and reused for the workspace's
// lifetime.
func NewWorkspace(fs float64, cfg Config) (*Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fs <= 0 {
		return nil, fmt.Errorf("features: invalid sampling rate %g", fs)
	}
	win := cfg.Window.SamplesPerWindow(fs)
	if win <= 0 {
		return nil, fmt.Errorf("features: degenerate window of %d samples at %g Hz", win, fs)
	}
	spec, err := spectrum.NewWorkspace(win, fs, window.Hann)
	if err != nil {
		return nil, err
	}
	return &Workspace{
		fs:    fs,
		cfg:   cfg,
		win:   win,
		spec:  spec,
		wl:    cfg.Wavelet.NewWorkspace(),
		bands: subbands{deepest: cfg.Level, next: cfg.Level - 1, renyi: 3},
		lin0:  make([]float64, win),
		lin1:  make([]float64, win),
		row:   make([]float64, 0, 10),
	}, nil
}

// subbands names, in one place, the DWT detail levels the 10-feature
// row reads; the decomposition keeps, and a streamer carries, only
// these.
type subbands struct {
	deepest int // D_Level: permutation entropy, n = 5 and 7
	next    int // D_Level−1: permutation entropy n = 7, sample entropy
	renyi   int // D3: Rényi entropy
}

// newSliding allocates a decomposition of n-sample windows keeping the
// row's subbands.
//
//selflearn:alloc-ok once per streamer at construction, and once per workspace on its first full decomposition
func (ws *Workspace) newSliding(n int) (*wavelet.Sliding, error) {
	b := ws.bands
	return wavelet.NewSliding(n, ws.cfg.Level, b.deepest, b.next, b.renyi)
}

// decompose pads w to a power of two and decomposes it to level into d,
// reusing d's buffers (the workspace form of the batch extractors'
// per-window decomposition).
func (ws *Workspace) decompose(d *wavelet.Decomposition, w []float64, level int) error {
	padded := ws.wl.PadPow2(w)
	if max := wavelet.MaxLevel(len(padded)); level > max {
		return fmt.Errorf("features: window of %d samples cannot reach DWT level %d", len(padded), level)
	}
	return ws.wl.DecomposeInto(d, padded, level)
}

// Features10Into appends the paper's 10 features for one aligned pair
// of channel windows to dst and returns the extended slice. With
// cap(dst) >= len(dst)+10 it allocates nothing after its first call.
func (ws *Workspace) Features10Into(dst []float64, w0, w1 []float64) ([]float64, error) {
	return ws.features10(dst, w0, w1, nil, 0)
}

// features10 is Features10Into with w1's decomposition slid into dwt,
// hop samples after the window dwt holds (see wavelet.Slide); hop 0
// decomposes w1 in full. A nil dwt slides the workspace's own.
func (ws *Workspace) features10(dst, w0, w1 []float64, dwt *wavelet.Sliding, hop int) ([]float64, error) {
	cfg, b := ws.cfg, ws.bands
	if err := ws.spec.PeriodogramPairInto(&ws.psd0, &ws.psd1, w0, w1); err != nil {
		return nil, err
	}
	x := ws.wl.PadPow2(w1)
	if dwt == nil {
		if ws.dwt == nil {
			d, err := ws.newSliding(len(x))
			if err != nil {
				return nil, fmt.Errorf("features: window of %d samples cannot reach DWT level %d", len(x), cfg.Level)
			}
			ws.dwt = d
		}
		dwt = ws.dwt
	}
	if err := ws.wl.Slide(dwt, x, hop); err != nil {
		return nil, err
	}
	pe5L7, err := ws.ent.Permutation(dwt.Detail(b.deepest), 5)
	if err != nil {
		return nil, err
	}
	pe7L7, err := ws.ent.Permutation(dwt.Detail(b.deepest), 7)
	if err != nil {
		return nil, err
	}
	pe7L6, err := ws.ent.Permutation(dwt.Detail(b.next), 7)
	if err != nil {
		return nil, err
	}
	renyiL3, err := ws.ent.RenyiSignal(dwt.Detail(b.renyi), cfg.RenyiAlpha, cfg.RenyiBins)
	if err != nil {
		return nil, err
	}
	se02, se035, err := ws.ent.SampleKPair(dwt.Detail(b.next), cfg.SampleM, 0.2, 0.35)
	if err != nil {
		return nil, err
	}
	return append(dst,
		ws.psd0.BandPower(spectrum.Theta),
		ws.psd0.RelativeBandPower(spectrum.Theta),
		ws.psd0.BandPower(spectrum.Delta),
		ws.psd1.RelativeBandPower(spectrum.Theta),
		pe5L7,
		pe7L7,
		pe7L6,
		renyiL3,
		se02,
		se035,
	), nil
}

// Features54Into appends the 54-feature e-Glass bank of one channel
// window to dst and returns the extended slice. With cap(dst) >=
// len(dst)+54 it allocates nothing.
func (ws *Workspace) Features54Into(dst []float64, w []float64) ([]float64, error) {
	cfg := ws.cfg
	base := len(dst)
	out := dst

	// Time-domain statistics.
	mean := stats.Mean(w)
	variance := stats.Variance(w)
	out = append(out, mean, variance, stats.RMS(w), stats.Skewness(w), stats.Kurtosis(w))
	mn, mx := stats.Min(w), stats.Max(w)
	out = append(out, mn, mx, mx-mn, lineLength(w), float64(zeroCrossings(w)))

	// Hjorth parameters.
	act, mob, cpx := ws.hjorth(w)
	out = append(out, act, mob, cpx)

	// Spectral features.
	if err := ws.spec.PeriodogramInto(&ws.psd0, w); err != nil {
		return nil, err
	}
	psd := &ws.psd0
	for _, b := range clinicalBands {
		out = append(out, psd.BandPower(b))
	}
	for _, b := range clinicalBands {
		out = append(out, psd.RelativeBandPower(b))
	}
	out = append(out,
		psd.TotalPower(),
		spectrum.SpectralEdgeFrequency(psd, 0.95),
		spectrum.PeakFrequency(psd, 0.5),
		spectralEntropy(psd),
	)

	// DWT: when the target depth passes level 3, pause there to capture
	// the level-3 approximation (the coarse signal the sample-entropy
	// feature runs on) and extend the same decomposition — levels 1–3
	// would otherwise be recomputed by a second pass.
	if cfg.Level >= 3 {
		if err := ws.decompose(&ws.dec, w, 3); err != nil {
			return nil, err
		}
		ws.approx3 = append(ws.approx3[:0], ws.dec.Approx...)
		if err := ws.wl.ExtendInto(&ws.dec, cfg.Level); err != nil {
			return nil, err
		}
	} else {
		if err := ws.decompose(&ws.dec, w, cfg.Level); err != nil {
			return nil, err
		}
		if err := ws.decompose(&ws.dec3, w, 3); err != nil {
			return nil, err
		}
		ws.approx3 = append(ws.approx3[:0], ws.dec3.Approx...)
	}

	// Subband energies: absolute (canonical ordering lives in
	// AppendSubbandEnergies: details in level order, then the
	// approximation), then the same normalized — all zeros stay zeros.
	eBase := len(out)
	out = ws.dec.AppendSubbandEnergies(out)
	var eTot float64
	for _, e := range out[eBase:] {
		eTot += e
	}
	for i := eBase; i < eBase+cfg.Level+1; i++ {
		if eTot == 0 {
			out = append(out, out[i])
		} else {
			out = append(out, out[i]/eTot)
		}
	}

	// Nonlinear features.
	pe3, err := ws.ent.Permutation(w, 3)
	if err != nil {
		return nil, err
	}
	pe5, err := ws.ent.Permutation(w, 5)
	if err != nil {
		return nil, err
	}
	// Sample entropy on a coarse approximation (level-3) keeps the cost
	// quadratic in 128 rather than 1024 samples.
	seA3, err := ws.ent.SampleK(ws.approx3, cfg.SampleM, 0.2)
	if err != nil {
		return nil, err
	}
	renyi, err := ws.ent.RenyiSignal(w, cfg.RenyiAlpha, cfg.RenyiBins)
	if err != nil {
		return nil, err
	}
	shannon, err := ws.ent.ShannonSignal(w, cfg.RenyiBins)
	if err != nil {
		return nil, err
	}
	peL6, err := ws.ent.Permutation(ws.dec.Detail(minInt(6, cfg.Level)), 5)
	if err != nil {
		return nil, err
	}
	peL7, err := ws.ent.Permutation(ws.dec.Detail(cfg.Level), 7)
	if err != nil {
		return nil, err
	}
	renyiL3, err := ws.ent.RenyiSignal(ws.dec.Detail(3), cfg.RenyiAlpha, cfg.RenyiBins)
	if err != nil {
		return nil, err
	}
	seL602, seL6035, err := ws.ent.SampleKPair(ws.dec.Detail(minInt(6, cfg.Level)), cfg.SampleM, 0.2, 0.35)
	if err != nil {
		return nil, err
	}
	out = append(out, pe3, pe5, seA3, renyi, shannon,
		peL6, peL7, renyiL3, seL602, seL6035, teagerEnergy(w))

	if len(out)-base != 54 {
		return nil, fmt.Errorf("features: internal error, %d features instead of 54", len(out)-base)
	}
	return out, nil
}

// clinicalBands is evaluated once: spectrum.ClinicalBands returns a
// fresh slice per call, which the per-window loop must not pay for.
var clinicalBands = spectrum.ClinicalBands()

// hjorth returns the Hjorth activity, mobility and complexity
// parameters, reusing the workspace derivative buffers.
func (ws *Workspace) hjorth(w []float64) (activity, mobility, complexity float64) {
	activity = stats.Variance(w)
	if len(w) < 3 || activity == 0 {
		return activity, 0, 0
	}
	ws.d1 = diffInto(ws.d1, w)
	ws.d2 = diffInto(ws.d2, ws.d1)
	v1 := stats.Variance(ws.d1)
	v2 := stats.Variance(ws.d2)
	mobility = math.Sqrt(v1 / activity)
	if v1 == 0 {
		return activity, mobility, 0
	}
	complexity = math.Sqrt(v2/v1) / mobility
	return activity, mobility, complexity
}

func diffInto(dst, w []float64) []float64 {
	n := len(w) - 1
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 1; i < len(w); i++ {
		dst[i-1] = w[i] - w[i-1]
	}
	return dst
}
