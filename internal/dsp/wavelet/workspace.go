package wavelet

import "fmt"

// Workspace owns the reusable state of multilevel decomposition: the
// analysis filters (derived once instead of per Forward call), two
// ping-pong approximation buffers, and a padding buffer. DecomposeInto
// then runs a full DWT with zero steady-state allocations, producing
// coefficients bit-identical to Decompose. A Workspace is not safe for
// concurrent use: one per goroutine; a serving worker's sessions share
// one.
type Workspace struct {
	w      Wavelet
	lo, hi []float64
	bufA   []float64
	bufB   []float64
	padded []float64
}

// NewWorkspace builds a decomposition workspace for the wavelet. Buffers
// grow on first use and are reused afterwards.
func (w Wavelet) NewWorkspace() *Workspace {
	return &Workspace{w: w, lo: w.decLo(), hi: w.decHi()}
}

// PadPow2 right-pads xs with its final value up to the next power of
// two into the workspace's padding buffer, returning xs unchanged when
// it already is one. The returned slice is valid until the next PadPow2
// call.
//
//selflearn:hotpath
func (ws *Workspace) PadPow2(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return xs
	}
	p := 1
	for p < n {
		p <<= 1
	}
	if p == n {
		return xs
	}
	if cap(ws.padded) < p {
		ws.padded = make([]float64, p)
	}
	out := ws.padded[:p]
	copy(out, xs)
	last := xs[n-1]
	for i := n; i < p; i++ {
		out[i] = last
	}
	return out
}

// forwardInto is one analysis step into caller-owned buffers, the
// allocation-free core of Forward, for the outputs from index from on;
// a nil detail skips the highpass half.
//
//selflearn:hotpath
func (ws *Workspace) forwardInto(approx, detail, x []float64, from int) {
	analyze(approx, x, ws.lo, from)
	if detail != nil {
		analyze(detail, x, ws.hi, from)
	}
}

// analyze is the one DWT analysis loop: out[i] = Σ_j f[j]·x[(2i+j) mod
// len(x)] for i from from up to len(out). Each sum starts at +0 and
// adds its taps in ascending j, as Forward's do, so coefficients are
// bit-identical to Forward's, signed zeros included. The bulk of the
// outputs never wrap, so the wrap check is hoisted out of the main
// loop.
//
//selflearn:hotpath
func analyze(out, x, f []float64, from int) {
	n := len(x)
	straight := min(max((len(x)-len(f))/2, 0), len(out)) // outputs below this index never wrap
	i := from
	if len(f) == 8 {
		// Eight taps (db4/sym4, the serving configuration), held in
		// registers.
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		for ; i < straight; i++ {
			w := x[2*i : 2*i+8 : 2*i+8]
			a := 0.0
			a += f0 * w[0]
			a += f1 * w[1]
			a += f2 * w[2]
			a += f3 * w[3]
			a += f4 * w[4]
			a += f5 * w[5]
			a += f6 * w[6]
			a += f7 * w[7]
			out[i] = a
		}
	}
	for ; i < len(out); i++ {
		var a float64
		for j, c := range f {
			idx := 2*i + j
			for idx >= n {
				idx -= n // periodic wrap
			}
			a += c * x[idx]
		}
		out[i] = a
	}
}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DecomposeInto performs a level-deep multilevel DWT of x into d,
// reusing d's coefficient slices when already sized. x is read-only.
// The result is bit-identical to Decompose. It seeds d with x as the
// level-0 approximation and delegates the descent to ExtendInto, so
// the analysis loop exists exactly once.
//
//selflearn:hotpath
func (ws *Workspace) DecomposeInto(d *Decomposition, x []float64, level int) error {
	if level < 1 {
		return fmt.Errorf("wavelet: invalid level %d", level)
	}
	if MaxLevel(len(x)) < level {
		return fmt.Errorf("wavelet: signal length %d does not support %d levels (max %d)",
			len(x), level, MaxLevel(len(x)))
	}
	d.Details = d.Details[:0]
	d.Approx = grow(d.Approx, len(x))
	copy(d.Approx, x)
	d.Wavelet = ws.w
	return ws.ExtendInto(d, level)
}

// ExtendInto deepens an existing decomposition in place from its
// current depth to level, reusing d's buffers. The appended detail
// levels and final approximation are bit-identical to a single
// DecomposeInto(d, x, level) — multilevel analysis always proceeds
// approximation-by-approximation — so a caller that needs an
// intermediate approximation can stop there, copy it, and extend.
func (ws *Workspace) ExtendInto(d *Decomposition, level int) error {
	have := len(d.Details)
	if level <= have {
		return nil
	}
	if MaxLevel(len(d.Approx)) < level-have {
		return fmt.Errorf("wavelet: approximation length %d does not support %d more levels (max %d)",
			len(d.Approx), level-have, MaxLevel(len(d.Approx)))
	}
	n := len(d.Approx)
	ws.bufA = grow(ws.bufA, n)
	ws.bufB = grow(ws.bufB, n/2)
	cur := ws.bufA[:n]
	copy(cur, d.Approx)
	next := ws.bufB
	if cap(d.Details) < level {
		details := make([][]float64, level)
		copy(details, d.Details)
		d.Details = details
	}
	d.Details = d.Details[:level]
	for l := have; l < level; l++ {
		half := len(cur) / 2
		d.Details[l] = grow(d.Details[l], half)
		ws.forwardInto(next[:half], d.Details[l], cur, 0)
		cur, next = next[:half], cur
	}
	d.Approx = grow(d.Approx, len(cur))
	copy(d.Approx, cur)
	return nil
}
