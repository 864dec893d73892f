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
// allocation-free core of Forward. The bulk of the outputs never wrap
// (base+m-1 < n), so the wrap check is hoisted out of the main loop;
// accumulation order is identical either way, keeping coefficients
// bit-identical to Forward.
func (ws *Workspace) forwardInto(approx, detail, x []float64) {
	h, g := ws.lo, ws.hi
	m := len(h)
	n := len(x)
	half := n / 2
	straight := (n - m) / 2 // largest count of outputs with base+m-1 <= n-1
	if straight < 0 {
		straight = 0
	}
	if straight > half {
		straight = half
	}
	if m == 8 {
		// Eight-tap analysis (db4/sym4, the serving configuration) with
		// the filter held in registers and the window load hoisted. The
		// accumulation order is exactly the generic loop's
		// (a += h[j]*v, ascending j), so coefficients stay bit-identical.
		h0, h1, h2, h3, h4, h5, h6, h7 := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
		g0, g1, g2, g3, g4, g5, g6, g7 := g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]
		for i := 0; i < straight; i++ {
			win := x[2*i : 2*i+8 : 2*i+8]
			v0, v1, v2, v3 := win[0], win[1], win[2], win[3]
			v4, v5, v6, v7 := win[4], win[5], win[6], win[7]
			a := h0 * v0
			a += h1 * v1
			a += h2 * v2
			a += h3 * v3
			a += h4 * v4
			a += h5 * v5
			a += h6 * v6
			a += h7 * v7
			d := g0 * v0
			d += g1 * v1
			d += g2 * v2
			d += g3 * v3
			d += g4 * v4
			d += g5 * v5
			d += g6 * v6
			d += g7 * v7
			approx[i] = a
			detail[i] = d
		}
	} else {
		for i := 0; i < straight; i++ {
			var a, d float64
			win := x[2*i : 2*i+m]
			for j, v := range win {
				a += h[j] * v
				d += g[j] * v
			}
			approx[i] = a
			detail[i] = d
		}
	}
	for i := straight; i < half; i++ {
		var a, d float64
		base := 2 * i
		for j := 0; j < m; j++ {
			idx := base + j
			for idx >= n {
				idx -= n // periodic wrap
			}
			a += h[j] * x[idx]
			d += g[j] * x[idx]
		}
		approx[i] = a
		detail[i] = d
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
		ws.forwardInto(next[:half], d.Details[l], cur)
		cur, next = next[:half], cur
	}
	d.Approx = grow(d.Approx, len(cur))
	copy(d.Approx, cur)
	return nil
}
