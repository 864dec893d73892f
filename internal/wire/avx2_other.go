//go:build !amd64

package wire

// Off amd64 simd.AVX2 is false and the Go loops are the only path;
// these stubs keep the dispatch compiling.

func boundsAVX2([]float64) (lo, hi float64, nan bool) { panic("wire: AVX2 kernels need amd64") }

func quantizeAVX2([]byte, []float64, float64, float64) bool { panic("wire: AVX2 kernels need amd64") }

func dequantizeAVX2([]float64, []byte, float64, float64) { panic("wire: AVX2 kernels need amd64") }
