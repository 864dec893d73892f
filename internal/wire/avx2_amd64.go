package wire

// The PushQ kernels of avx2_amd64.s run where simd.AVX2 holds, four
// samples per YMM register. Each lane performs the Go loop's IEEE
// operations in its order (no fused multiply-add, which go1.24 never
// emits on amd64), so every frame keeps its bytes.

// boundsAVX2 returns the least and greatest of xs and whether any is
// NaN; len(xs) is a positive multiple of 4.
//
//go:noescape
func boundsAVX2(xs []float64) (lo, hi float64, nan bool)

// quantizeAVX2 is quantize's Go loop over xs; len(xs) is a multiple of
// 4 and len(dst) ≥ 2·len(xs).
//
//go:noescape
func quantizeAVX2(dst []byte, xs []float64, offset, scale float64) bool

// dequantizeAVX2 is dequantize's Go loop over dst; len(dst) is a
// multiple of 4 and len(src) ≥ 2·len(dst).
//
//go:noescape
func dequantizeAVX2(dst []float64, src []byte, offset, scale float64)
