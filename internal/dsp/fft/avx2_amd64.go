package fft

// The kernels of avx2_amd64.s run where simd.AVX2 holds. They perform
// the Go path's IEEE operations in its order, one butterfly or bin per
// 128-bit lane, so every result keeps the Go path's bits: no fused
// multiply-add (go1.24 fuses none on amd64), the complex product as
// VMULPD, VPERMILPD, VMULPD, VADDSUBPD, and k = 0's multiply-free
// butterflies through VBLENDPD.

// packAVX2 writes z[rev[i]] = (xs[2i]·taper[2i], xs[2i+1]·taper[2i+1])
// for i < len(xs)/2; len(xs) is a multiple of 4.
//
//go:noescape
func packAVX2(z []complex128, xs, taper []float64, rev []int32)

// radix4AVX2 runs the first two stages over bit-reversed x, as the
// first loop of Plan.butterflies.
//
//go:noescape
func radix4AVX2(x []complex128)

// pairAVX2 runs one pair of stages, sizes S and 2S, over x: w1 holds
// the S stage's S/2 twiddles and w2 the 2S stage's S.
//
//go:noescape
func pairAVX2(x, w1, w2 []complex128)

// stageAVX2 runs one stage of size 2·len(w) over x alone.
//
//go:noescape
func stageAVX2(x, w []complex128)

// unpackAVX2 writes |X[k]|² and |X[m−k]|² for k = 1..m/2 from the
// transformed half-length z (m = len(z)) and the twiddles w.
//
//go:noescape
func unpackAVX2(dst []float64, z, w []complex128)

// butterfliesAVX2 is Plan.butterflies on the AVX2 kernels; n ≥ 4.
//
//selflearn:hotpath
func (p *Plan) butterfliesAVX2(x []complex128) {
	n := p.n
	radix4AVX2(x)
	tw := p.tw
	off := 3
	size := 8
	for ; 2*size <= n; size <<= 2 {
		q := size >> 1
		pairAVX2(x, tw[off:off+q], tw[off+q:off+q+size])
		off += q + size
	}
	if size <= n {
		half := size >> 1
		stageAVX2(x, tw[off:off+half])
	}
}

// powerAVX2 is powerGo on the AVX2 kernels; n ≥ minAVX2.
//
//selflearn:hotpath
func (p *RealPlan) powerAVX2(dst, xs, taper []float64) {
	quads := len(xs) &^ 3
	packAVX2(p.z, xs[:quads], taper[:quads], p.half.rev)
	p.pack(quads/2, xs, taper)
	p.half.butterfliesAVX2(p.z)
	p.edges(dst)
	unpackAVX2(dst, p.z, p.w)
}
