package fft

import (
	"fmt"
	"math/cmplx"
)

// Plan owns the precomputed tables of a fixed-size transform: the
// bit-reversal permutation and one twiddle factor per butterfly stage
// position. The generic Forward recomputes every twiddle with a serial
// complex multiplication (w *= wStep), which chains a 6-flop dependency
// through every butterfly; table lookups break that chain and halve the
// multiply count, which is where the streaming feature extractor spends
// most of its FFT time. A Plan is immutable after construction and safe
// for concurrent use.
type Plan struct {
	n   int
	rev []int32      // bit-reversal permutation
	tw  []complex128 // stage twiddles: size 2, 4, ..., n concatenated
}

// NewPlan builds transform tables for length n (a power of two).
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, ErrNotPow2
	}
	p := &Plan{n: n, rev: make([]int32, n)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	p.tw = make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * pi / float64(size)
		for k := 0; k < size/2; k++ {
			p.tw = append(p.tw, cmplx.Rect(1, ang*float64(k)))
		}
	}
	return p, nil
}

// Forward computes the in-place forward DFT of x, which must be exactly
// the planned length. It allocates nothing.
//
//selflearn:hotpath
func (p *Plan) Forward(x []complex128) error {
	n := p.n
	if len(x) != n {
		return fmt.Errorf("fft: plan sized for %d points, got %d", n, len(x))
	}
	rev := p.rev
	for i := 1; i < n; i++ {
		j := int(rev[i])
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x)
	return nil
}

// butterflies runs the stage loop over already bit-reversed data. The
// first two stages use only the trivial twiddles 1 and −i, so they are
// folded into one radix-4-style pass with no multiplies. Later stages
// run in pairs, sizes S and 2S in one pass over each 2S block's four
// quarters, so the data is loaded and stored once per pair; an odd
// last stage runs alone. Every element meets the same table twiddles,
// multiplies and adds in the same order as in a pass per stage, and
// k = 0 (twiddle exactly 1) skips its multiply in both stages, so the
// spectrum is bit-identical to the radix-2 stage loop.
//
//selflearn:hotpath
func (p *Plan) butterflies(x []complex128) {
	n := p.n
	if n >= 4 {
		for s := 0; s+4 <= n; s += 4 {
			q := x[s : s+4 : s+4]
			a, b, c, d := q[0], q[1], q[2], q[3]
			s0, d0 := a+b, a-b
			s1, d1 := c+d, c-d
			// twiddle −i on the odd lane of the size-4 stage
			t1 := complex(imag(d1), -real(d1))
			q[0] = s0 + s1
			q[2] = s0 - s1
			q[1] = d0 + t1
			q[3] = d0 - t1
		}
	} else if n == 2 {
		a, b := x[0], x[1]
		x[0], x[1] = a+b, a-b
	}
	tw := p.tw
	off := 3 // skip the size-2 and size-4 twiddle rows (1 + 2 entries)
	size := 8
	for ; 2*size <= n; size <<= 2 {
		q := size >> 1 // quarter of a 2·size block: the size stage's half
		row := tw[off:]
		w1, w2, w3 := row[:q], row[q:][:q], row[2*q:][:q] // size stage; 2·size stage's halves
		for start := 0; start < n; start += 2 * size {
			blk := x[start:]
			q0, q1, q2, q3 := blk[:q], blk[q:][:q], blk[2*q:][:q], blk[3*q:][:q]
			// k = 0: the size stage's twiddle and the 2·size stage's
			// first are exactly 1.
			a, b, c, d := q0[0], q1[0], q2[0], q3[0]
			a, b = a+b, a-b
			c, d = c+d, c-d
			t := d * w3[0]
			q0[0], q2[0] = a+c, a-c
			q1[0], q3[0] = b+t, b-t
			for k := 1; k < q; k++ {
				a, b, c, d := q0[k], q1[k], q2[k], q3[k]
				w := w1[k]
				t := b * w
				a, b = a+t, a-t
				t = d * w
				c, d = c+t, c-t
				t = c * w2[k]
				q0[k], q2[k] = a+t, a-t
				t = d * w3[k]
				q1[k], q3[k] = b+t, b-t
			}
		}
		off += q + size
	}
	if size <= n {
		// An odd count of stages: the last runs alone.
		half := size >> 1
		stage := tw[off : off+half]
		for start := 0; start < n; start += size {
			a := x[start : start+half : start+half]
			b := x[start+half : start+size : start+size]
			t := b[0]
			u := a[0]
			a[0] = u + t
			b[0] = u - t
			for k := 1; k < half; k++ {
				t := b[k] * stage[k]
				u := a[k]
				a[k] = u + t
				b[k] = u - t
			}
		}
	}
}

const pi = 3.141592653589793

// RealPlan computes one-sided power spectra of real signals of a fixed
// power-of-two length n: the n-point real input is packed into an
// n/2-point complex transform and unpacked with one twiddle rotation per
// bin — a little over twice as fast as running the full complex
// transform on zero imaginary parts, which is what the periodogram
// workspace used to do. A RealPlan owns a scratch buffer and is NOT safe
// for concurrent use; give each workspace its own.
type RealPlan struct {
	n    int
	half *Plan
	w    []complex128 // e^{-2πik/n}, k = 0..n/4
	z    []complex128 // packed half-length buffer
}

// NewRealPlan builds a real-input plan for length n (a power of two,
// at least 2).
func NewRealPlan(n int) (*RealPlan, error) {
	if !IsPow2(n) || n < 2 {
		return nil, ErrNotPow2
	}
	half, err := NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RealPlan{n: n, half: half, z: make([]complex128, n/2)}
	p.w = make([]complex128, n/4+1)
	ang := -2 * pi / float64(n)
	for k := range p.w {
		p.w[k] = cmplx.Rect(1, ang*float64(k))
	}
	return p, nil
}

// PowerSpectrumInto writes the squared DFT magnitudes |X[k]|² of the
// real signal xs into dst for k = 0..n/2 and returns dst[:n/2+1].
// len(xs) must equal the planned length and cap(dst) must be at least
// n/2+1. It allocates nothing.
//
//selflearn:hotpath
func (p *RealPlan) PowerSpectrumInto(dst []float64, xs []float64) ([]float64, error) {
	n := p.n
	if len(xs) != n {
		return nil, fmt.Errorf("fft: real plan sized for %d points, got %d", n, len(xs))
	}
	m := n / 2
	z := p.z
	// Pack adjacent sample pairs straight into bit-reversed positions,
	// so the transform skips its permutation pass entirely.
	rev := p.half.rev
	z[0] = complex(xs[0], xs[1])
	for i := 1; i < m; i++ {
		z[rev[i]] = complex(xs[2*i], xs[2*i+1])
	}
	p.half.butterflies(z)
	dst = dst[:m+1]
	// DC and Nyquist bins are real-valued combinations of Z[0].
	re0, im0 := real(z[0]), imag(z[0])
	dc := re0 + im0
	ny := re0 - im0
	dst[0] = dc * dc
	dst[m] = ny * ny
	// Unpack X[k] = E[k] + w[k]·O[k] with E[k] = (Z[k]+conj(Z[m−k]))/2,
	// O[k] = (Z[k]−conj(Z[m−k]))/(2i). The twiddle table covers k ≤ n/4;
	// the mirror bin m−k reuses w[k] via the conjugate-symmetry of the
	// unpack, so each loop iteration finishes two bins.
	for k := 1; k <= m/2; k++ {
		zk, zmk := z[k], z[m-k]
		erE := 0.5 * (real(zk) + real(zmk))
		eiE := 0.5 * (imag(zk) - imag(zmk))
		orE := 0.5 * (imag(zk) + imag(zmk))
		oiE := 0.5 * (real(zmk) - real(zk))
		wr, wi := real(p.w[k]), imag(p.w[k])
		// X[k] = E + w·O
		tr := wr*orE - wi*oiE
		ti := wr*oiE + wi*orE
		xr := erE + tr
		xi := eiE + ti
		dst[k] = xr*xr + xi*xi
		if k != m-k {
			// X[m−k] = conj(E) − conj(w·O)… derived directly: with
			// E' = (Z[m−k]+conj(Z[k]))/2 = conj(E) and
			// O' = (Z[m−k]−conj(Z[k]))/(2i) = −conj(O), and
			// w[m−k] = −conj(w[k]):  X[m−k] = conj(E) − conj(w)·conj(O)
			// = conj(E + w·O − 2i·Im(w·O))… simplest exact form below.
			yr := erE - tr
			yi := -eiE + ti
			dst[m-k] = yr*yr + yi*yi
		}
	}
	return dst, nil
}
