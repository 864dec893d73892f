// Package wavelet implements the orthogonal discrete wavelet transform
// (DWT) with periodic boundary handling. The paper decomposes each
// four-second EEG window to level seven with the Daubechies-4 (db4) basis
// and computes entropies on the resulting subbands.
package wavelet

import (
	"errors"
	"fmt"
	"math"
)

// Wavelet is an orthonormal wavelet defined by its scaling (lowpass
// reconstruction) filter.
type Wavelet struct {
	name    string
	scaling []float64
}

// Predefined Daubechies wavelets. The coefficient vectors are the
// orthonormal scaling filters (they sum to √2).
var (
	Haar = Wavelet{"haar", []float64{
		0.7071067811865476, 0.7071067811865476,
	}}
	DB2 = Wavelet{"db2", []float64{
		0.48296291314453414, 0.8365163037378077,
		0.2241438680420134, -0.1294095225512603,
	}}
	DB3 = Wavelet{"db3", []float64{
		0.3326705529500826, 0.8068915093110925, 0.4598775021184915,
		-0.1350110200102546, -0.0854412738820267, 0.0352262918857095,
	}}
	// DB4 is the basis the paper uses ("Daubechies 4 (db4)").
	DB4 = Wavelet{"db4", []float64{
		0.2303778133088964, 0.7148465705529156, 0.6308807679298589,
		-0.0279837694168599, -0.1870348117190931, 0.0308413818355607,
		0.0328830116668852, -0.0105974017850690,
	}}
	// Sym4 is the least-asymmetric 4-vanishing-moment Daubechies
	// variant, a common alternative basis in EEG work.
	Sym4 = Wavelet{"sym4", []float64{
		0.0322231006040427, -0.0126039672620378, -0.0992195435768472,
		0.2978577956052774, 0.8037387518059161, 0.4976186676320155,
		-0.0296355276459985, -0.0757657147892733,
	}}
)

// Name returns the conventional name of the wavelet.
func (w Wavelet) Name() string { return w.name }

// decLo returns the analysis lowpass filter (time-reversed scaling
// filter).
func (w Wavelet) decLo() []float64 {
	m := len(w.scaling)
	h := make([]float64, m)
	for i := range h {
		h[i] = w.scaling[m-1-i]
	}
	return h
}

// decHi returns the analysis highpass filter via the alternating-sign
// quadrature-mirror construction.
func (w Wavelet) decHi() []float64 {
	m := len(w.scaling)
	g := make([]float64, m)
	for i := range g {
		if i%2 == 0 {
			g[i] = w.scaling[i]
		} else {
			g[i] = -w.scaling[i]
		}
	}
	return g
}

// ErrOddLength is returned when a single-level transform is requested on
// an odd-length signal.
var ErrOddLength = errors.New("wavelet: signal length must be even")

// Forward performs one analysis step with periodic extension, returning
// the approximation (lowpass) and detail (highpass) coefficients, each of
// length len(x)/2.
func (w Wavelet) Forward(x []float64) (approx, detail []float64, err error) {
	n := len(x)
	if n == 0 {
		return nil, nil, errors.New("wavelet: empty signal")
	}
	if n%2 != 0 {
		return nil, nil, ErrOddLength
	}
	h, g := w.decLo(), w.decHi()
	m := len(h)
	half := n / 2
	approx = make([]float64, half)
	detail = make([]float64, half)
	for i := 0; i < half; i++ {
		var a, d float64
		base := 2 * i
		for j := 0; j < m; j++ {
			idx := base + j
			if idx >= n {
				idx -= n // periodic wrap (m <= n is enforced by callers' sizes; wrap repeatedly below if not)
				for idx >= n {
					idx -= n
				}
			}
			a += h[j] * x[idx]
			d += g[j] * x[idx]
		}
		approx[i] = a
		detail[i] = d
	}
	return approx, detail, nil
}

// Inverse performs one synthesis step, the exact adjoint of Forward, so
// Inverse(Forward(x)) == x for any even-length x.
func (w Wavelet) Inverse(approx, detail []float64) ([]float64, error) {
	if len(approx) != len(detail) {
		return nil, fmt.Errorf("wavelet: approx/detail length mismatch %d vs %d", len(approx), len(detail))
	}
	if len(approx) == 0 {
		return nil, errors.New("wavelet: empty coefficients")
	}
	h, g := w.decLo(), w.decHi()
	m := len(h)
	n := 2 * len(approx)
	x := make([]float64, n)
	for i := range approx {
		base := 2 * i
		for j := 0; j < m; j++ {
			idx := base + j
			for idx >= n {
				idx -= n
			}
			x[idx] += h[j]*approx[i] + g[j]*detail[i]
		}
	}
	return x, nil
}

// Decomposition holds a multilevel DWT: Details[k] contains the detail
// coefficients of level k+1 (so Details[0] is the finest scale) and
// Approx the approximation at the deepest level.
type Decomposition struct {
	Wavelet Wavelet
	Approx  []float64
	Details [][]float64
}

// Detail returns the detail coefficients of the given level (1-based, as
// in the paper's "seventh level permutation entropy"). It returns nil
// when the level is out of range.
//
//selflearn:hotpath
func (d *Decomposition) Detail(level int) []float64 {
	if level < 1 || level > len(d.Details) {
		return nil
	}
	return d.Details[level-1]
}

// MaxLevel returns the deepest decomposition level reachable for a signal
// of length n (each level halves the length; decomposition stops before
// the signal would become shorter than 2 samples or odd).
//
//selflearn:hotpath
func MaxLevel(n int) int {
	level := 0
	for n >= 2 && n%2 == 0 {
		n /= 2
		level++
	}
	return level
}

// Decompose performs a level-deep multilevel DWT of x. The length of x
// must be divisible by 2^level.
func (w Wavelet) Decompose(x []float64, level int) (*Decomposition, error) {
	if level < 1 {
		return nil, fmt.Errorf("wavelet: invalid level %d", level)
	}
	if MaxLevel(len(x)) < level {
		return nil, fmt.Errorf("wavelet: signal length %d does not support %d levels (max %d)",
			len(x), level, MaxLevel(len(x)))
	}
	d := &Decomposition{Wavelet: w}
	cur := append([]float64(nil), x...)
	for l := 0; l < level; l++ {
		a, det, err := w.Forward(cur)
		if err != nil {
			return nil, err
		}
		d.Details = append(d.Details, det)
		cur = a
	}
	d.Approx = cur
	return d, nil
}

// Reconstruct inverts a multilevel decomposition back to the original
// signal.
func (w Wavelet) Reconstruct(d *Decomposition) ([]float64, error) {
	if d == nil || len(d.Details) == 0 {
		return nil, errors.New("wavelet: empty decomposition")
	}
	cur := append([]float64(nil), d.Approx...)
	for l := len(d.Details) - 1; l >= 0; l-- {
		next, err := w.Inverse(cur, d.Details[l])
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// AppendSubbandEnergies appends the subband energies — details in level
// order, then the approximation — to dst and returns the extended
// slice: the single definition of the subband-energy feature ordering.
func (d *Decomposition) AppendSubbandEnergies(dst []float64) []float64 {
	for _, det := range d.Details {
		dst = append(dst, energy(det))
	}
	return append(dst, energy(d.Approx))
}

func energy(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}

// OrthonormalityError returns the maximum deviation of the wavelet's
// analysis filters from orthonormality; useful for validating custom
// coefficient sets. For the built-in wavelets it is ~1e-15.
func (w Wavelet) OrthonormalityError() float64 {
	h, g := w.decLo(), w.decHi()
	m := len(h)
	worst := 0.0
	dot := func(a, b []float64, shift int) float64 {
		var s float64
		for i := 0; i+shift < m; i++ {
			s += a[i] * b[i+shift]
		}
		return s
	}
	for k := 0; 2*k < m; k++ {
		want := 0.0
		if k == 0 {
			want = 1
		}
		worst = math.Max(worst, math.Abs(dot(h, h, 2*k)-want))
		worst = math.Max(worst, math.Abs(dot(g, g, 2*k)-want))
		worst = math.Max(worst, math.Abs(dot(h, g, 2*k)))
		worst = math.Max(worst, math.Abs(dot(g, h, 2*k)))
	}
	return worst
}
