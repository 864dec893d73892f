//go:build !amd64

package fft

// Off amd64 simd.AVX2 is false and the Go path is the only path; these
// stubs keep the tests that name the kernels compiling.

func (p *Plan) butterfliesAVX2([]complex128) { panic("fft: AVX2 kernels need amd64") }

func (p *RealPlan) powerAVX2(_, _, _ []float64) { panic("fft: AVX2 kernels need amd64") }
