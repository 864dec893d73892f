// Package spectrum estimates power spectral densities and EEG band powers.
// The paper's most discriminative features — total and relative delta
// ([0.5, 4] Hz) and theta ([4, 8] Hz) band power — are computed here from
// Welch/periodogram estimates.
package spectrum

import (
	"errors"
	"fmt"
	"math"

	"selflearn/internal/dsp/fft"
	"selflearn/internal/dsp/window"
)

// Band is a frequency interval in Hz, inclusive of Low, exclusive of High.
type Band struct {
	Name string
	Low  float64 // Hz
	High float64 // Hz
}

// The standard clinical EEG bands. Delta and Theta are the bands the
// paper's backward elimination retained.
var (
	Delta = Band{"delta", 0.5, 4}
	Theta = Band{"theta", 4, 8}
	Alpha = Band{"alpha", 8, 13}
	Beta  = Band{"beta", 13, 30}
	Gamma = Band{"gamma", 30, 100}
)

// ClinicalBands lists the five standard bands in ascending frequency.
func ClinicalBands() []Band {
	return []Band{Delta, Theta, Alpha, Beta, Gamma}
}

// PSD is a one-sided power spectral density estimate.
type PSD struct {
	// Power[k] is the density at frequency Freq(k), in signal-units²/Hz.
	Power []float64
	// BinWidth is the frequency spacing between consecutive bins in Hz.
	BinWidth float64

	// total memoizes TotalPower: the feature extractor integrates the
	// spectrum once per clinical band otherwise (RelativeBandPower per
	// band per window). Estimators set it at construction; a PSD built
	// or mutated by hand falls back to the lazy computation below.
	total    float64
	hasTotal bool
}

// Freq returns the frequency of bin k in Hz.
func (p *PSD) Freq(k int) float64 { return float64(k) * p.BinWidth }

// Invalidate drops the memoized total power; call it after mutating
// Power in place.
func (p *PSD) Invalidate() { p.hasTotal = false }

// TotalPower integrates the PSD over all frequencies. The integral is
// computed once and memoized (not goroutine-safe on first call; PSDs are
// per-window values, not shared state).
func (p *PSD) TotalPower() float64 {
	if !p.hasTotal {
		var s float64
		for _, v := range p.Power {
			s += v
		}
		p.total = s * p.BinWidth
		p.hasTotal = true
	}
	return p.total
}

// BandPower integrates the PSD over band b. Bins whose center frequency
// lies in [b.Low, b.High) contribute.
//
//selflearn:hotpath
func (p *PSD) BandPower(b Band) float64 {
	lo, hi := p.bandRange(b)
	var s float64
	for _, v := range p.Power[lo:hi] {
		s += v
	}
	return s * p.BinWidth
}

// bandRange returns the half-open bin range [lo, hi) whose center
// frequencies lie in [b.Low, b.High). The bounds are located by
// division and then pinned against the exact per-bin predicate
// (Freq(k) >= Low, Freq(k) < High), so the selected bins — and
// therefore BandPower's sum, term for term — are identical to the
// full scan this replaces, for any BinWidth rounding behavior.
//
//selflearn:hotpath
func (p *PSD) bandRange(b Band) (lo, hi int) {
	n := len(p.Power)
	bw := p.BinWidth
	if math.IsNaN(bw) {
		return 0, 0 // Freq(k) is NaN for every bin: nothing selects
	}
	if bw <= 0 {
		// Degenerate spacing: every bin sits at frequency k*bw <= 0;
		// bin 0 (and, for bw == 0, every bin) is at exactly 0.
		if bw == 0 && b.Low <= 0 && b.High > 0 {
			return 0, n
		}
		return 0, 0
	}
	lo = clampBin(int(b.Low/bw), n)
	for lo > 0 && float64(lo-1)*bw >= b.Low {
		lo--
	}
	for lo < n && float64(lo)*bw < b.Low {
		lo++
	}
	hi = clampBin(int(b.High/bw), n)
	for hi > 0 && float64(hi-1)*bw >= b.High {
		hi--
	}
	for hi < n && float64(hi)*bw < b.High {
		hi++
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func clampBin(k, n int) int {
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

// RelativeBandPower returns BandPower(b)/TotalPower, or 0 when the total
// power is zero.
//
//selflearn:hotpath
func (p *PSD) RelativeBandPower(b Band) float64 {
	tot := p.TotalPower()
	if tot == 0 {
		return 0
	}
	return p.BandPower(b) / tot
}

// Workspace owns the reusable state of periodogram estimation at one
// fixed signal length: the memoized taper table, the power scale and
// the real-FFT plan, which tapers and zero-pads the signal as it packs
// it. PeriodogramInto then estimates a PSD with zero steady-state
// allocations. A Workspace is not safe for concurrent use: one per
// goroutine; a serving worker's sessions share one.
type Workspace struct {
	n      int
	fs     float64
	coeffs []float64 // shared read-only taper table (window.Cached)
	rp     *fft.RealPlan
	scale  float64
	nfft   int
}

// NewWorkspace builds a periodogram workspace for signals of exactly n
// samples at fs Hz tapered by taper.
func NewWorkspace(n int, fs float64, taper window.Func) (*Workspace, error) {
	if n <= 0 {
		return nil, errors.New("spectrum: empty signal")
	}
	if fs <= 0 {
		return nil, fmt.Errorf("spectrum: invalid sampling rate %g", fs)
	}
	nfft := fft.NextPow2(n)
	wp := window.Power(taper, n)
	if wp == 0 {
		wp = 1
	}
	ws := &Workspace{
		n:      n,
		fs:     fs,
		coeffs: window.Cached(taper, n),
		// One-sided PSD with taper power correction. The denominator
		// uses the original (pre-padding) length so that total power
		// matches the time-domain mean square of the tapered signal.
		scale: 1 / (fs * float64(n) * wp),
		nfft:  nfft,
	}
	if nfft >= 2 {
		rp, err := fft.NewRealPlan(nfft)
		if err != nil {
			return nil, err
		}
		ws.rp = rp
	}
	return ws, nil
}

// PeriodogramInto estimates the one-sided PSD of xs into dst, reusing
// dst.Power when already sized. len(xs) must equal the workspace length.
//
//selflearn:hotpath
func (ws *Workspace) PeriodogramInto(dst *PSD, xs []float64) error {
	if len(xs) != ws.n {
		return fmt.Errorf("spectrum: workspace sized for %d samples, got %d", ws.n, len(xs))
	}
	nfft := ws.nfft
	half := nfft/2 + 1
	sizePower(dst, half)
	if ws.rp != nil {
		// |X[k]|² of the tapered, zero-padded signal straight into the
		// PSD bins, via the half-size real-input transform.
		if _, err := ws.rp.PowerSpectrumInto(dst.Power, xs, ws.coeffs); err != nil {
			return err
		}
	} else {
		// nfft == 1: the single bin is the (tapered) sample itself.
		v := xs[0] * ws.coeffs[0]
		dst.Power[0] = v * v
	}
	var total float64
	for k := 0; k < half; k++ {
		p := dst.Power[k] * ws.scale
		if k != 0 && k != nfft/2 {
			p *= 2 // fold negative frequencies
		}
		dst.Power[k] = p
		total += p
	}
	dst.BinWidth = ws.fs / float64(nfft)
	dst.total = total * dst.BinWidth
	dst.hasTotal = true
	return nil
}

// PeriodogramPairInto estimates the one-sided PSDs of x0 into d0 and of
// x1 into d1, each bit-identical to its own PeriodogramInto. One loop
// scales and folds both spectra, so their two sequential total-power
// sums overlap; each sum keeps its own terms in PeriodogramInto's
// order.
//
//selflearn:hotpath
func (ws *Workspace) PeriodogramPairInto(d0, d1 *PSD, x0, x1 []float64) error {
	if ws.rp == nil {
		// nfft == 1: a single bin, nothing to overlap.
		if err := ws.PeriodogramInto(d0, x0); err != nil {
			return err
		}
		return ws.PeriodogramInto(d1, x1)
	}
	if len(x0) != ws.n || len(x1) != ws.n {
		return fmt.Errorf("spectrum: workspace sized for %d samples, got %d and %d", ws.n, len(x0), len(x1))
	}
	half := ws.nfft/2 + 1
	p0, p1 := sizePower(d0, half), sizePower(d1, half)
	if _, err := ws.rp.PowerSpectrumInto(p0, x0, ws.coeffs); err != nil {
		return err
	}
	if _, err := ws.rp.PowerSpectrumInto(p1, x1, ws.coeffs); err != nil {
		return err
	}
	// Bins 0 and nfft/2 have no negative-frequency twin; every bin
	// between them folds one in.
	scale, last := ws.scale, half-1
	p0[0] *= scale
	p1[0] *= scale
	var t0, t1 float64
	t0 += p0[0]
	t1 += p1[0]
	for k := 1; k < last; k++ {
		v0 := p0[k] * scale * 2
		v1 := p1[k] * scale * 2
		p0[k], p1[k] = v0, v1
		t0 += v0
		t1 += v1
	}
	p0[last] *= scale
	p1[last] *= scale
	t0 += p0[last]
	t1 += p1[last]
	bw := ws.fs / float64(ws.nfft)
	d0.BinWidth, d0.total, d0.hasTotal = bw, t0*bw, true
	d1.BinWidth, d1.total, d1.hasTotal = bw, t1*bw, true
	return nil
}

// sizePower sizes d.Power to half bins, reusing its array when it fits.
func sizePower(d *PSD, half int) []float64 {
	if cap(d.Power) < half {
		d.Power = make([]float64, half)
	}
	d.Power = d.Power[:half]
	return d.Power
}

// Periodogram estimates the one-sided PSD of xs sampled at fs Hz using a
// single tapered FFT. The signal is zero-padded to the next power of two.
// Streaming callers should hold a Workspace and use PeriodogramInto,
// which allocates nothing per window.
func Periodogram(xs []float64, fs float64, taper window.Func) (*PSD, error) {
	ws, err := NewWorkspace(len(xs), fs, taper)
	if err != nil {
		return nil, err
	}
	p := &PSD{}
	if err := ws.PeriodogramInto(p, xs); err != nil {
		return nil, err
	}
	return p, nil
}

// Welch estimates the PSD by averaging periodograms of segments of length
// segLen with 50% overlap. When the signal is shorter than segLen it falls
// back to a single periodogram.
func Welch(xs []float64, fs float64, segLen int, taper window.Func) (*PSD, error) {
	if len(xs) == 0 {
		return nil, errors.New("spectrum: empty signal")
	}
	if segLen <= 0 {
		return nil, fmt.Errorf("spectrum: invalid segment length %d", segLen)
	}
	if len(xs) < segLen {
		return Periodogram(xs, fs, taper)
	}
	hop := segLen / 2
	if hop == 0 {
		hop = 1
	}
	// One workspace serves every segment: the segment length is fixed,
	// so the taper table and FFT buffer are shared across the loop.
	ws, err := NewWorkspace(segLen, fs, taper)
	if err != nil {
		return nil, err
	}
	acc := &PSD{}
	var seg PSD
	var count int
	for start := 0; start+segLen <= len(xs); start += hop {
		if count == 0 {
			if err := ws.PeriodogramInto(acc, xs[start:start+segLen]); err != nil {
				return nil, err
			}
		} else {
			if err := ws.PeriodogramInto(&seg, xs[start:start+segLen]); err != nil {
				return nil, err
			}
			for k := range acc.Power {
				acc.Power[k] += seg.Power[k]
			}
		}
		count++
	}
	for k := range acc.Power {
		acc.Power[k] /= float64(count)
	}
	acc.Invalidate() // the averaging above outdated the memoized total
	return acc, nil
}

// BandPowers computes the total power in each band of bands from a single
// periodogram of xs. It is the convenience entry point used by the
// feature extractor.
func BandPowers(xs []float64, fs float64, bands []Band) ([]float64, error) {
	psd, err := Periodogram(xs, fs, window.Hann)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(bands))
	for i, b := range bands {
		out[i] = psd.BandPower(b)
	}
	return out, nil
}

// SpectralEdgeFrequency returns the frequency below which fraction q of
// the total spectral power lies (e.g. SEF95 with q = 0.95).
func SpectralEdgeFrequency(p *PSD, q float64) float64 {
	if q <= 0 || q > 1 || len(p.Power) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, v := range p.Power {
		total += v
	}
	if total == 0 {
		return 0
	}
	target := q * total
	cum := 0.0
	for k, v := range p.Power {
		cum += v
		if cum >= target {
			return p.Freq(k)
		}
	}
	return p.Freq(len(p.Power) - 1)
}

// PeakFrequency returns the frequency of the strongest PSD bin at or above
// minFreq (to let callers skip the DC bin).
func PeakFrequency(p *PSD, minFreq float64) float64 {
	best, bestP := math.NaN(), -1.0
	for k, v := range p.Power {
		f := p.Freq(k)
		if f < minFreq {
			continue
		}
		if v > bestP {
			bestP = v
			best = f
		}
	}
	return best
}
