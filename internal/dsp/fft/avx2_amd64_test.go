package fft

import (
	"testing"

	"selflearn/internal/simd"
)

// BenchmarkKernels1024 times each pass of a Hann-tapered 1,024-point
// power spectrum on each path: the tapered bit-reversed pack, the
// butterflies of the 512-point transform, and the unpack to |X[k]|².
func BenchmarkKernels1024(b *testing.B) {
	if !simd.AVX2 {
		b.Skip("the CPU has no AVX2")
	}
	const n = 1024
	rp, _ := NewRealPlan(n)
	xs, taper := benchInput(n)
	dst := make([]float64, n/2+1)
	rp.powerGo(dst, xs, taper)
	z := append([]complex128(nil), rp.z...)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"pack/go", func() { rp.pack(0, xs, taper) }},
		{"pack/avx2", func() { packAVX2(rp.z, xs, taper, rp.half.rev) }},
		{"butterflies/go", func() { copy(rp.z, z); rp.half.butterflies(rp.z) }},
		{"butterflies/avx2", func() { copy(rp.z, z); rp.half.butterfliesAVX2(rp.z) }},
		{"unpack/go", func() { rp.unpack(dst) }},
		{"unpack/avx2", func() { unpackAVX2(dst, rp.z, rp.w) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
