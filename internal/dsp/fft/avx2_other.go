//go:build !amd64

package fft

// useAVX2 is false off amd64: the Go path is the only path.
const useAVX2 = false

func (p *Plan) butterfliesAVX2([]complex128) { panic("fft: AVX2 kernels need amd64") }

func (p *RealPlan) powerAVX2(_, _, _ []float64) { panic("fft: AVX2 kernels need amd64") }
