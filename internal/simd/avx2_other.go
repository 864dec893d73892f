//go:build !amd64

package simd

// AVX2 is false off amd64: the Go paths are the only paths.
const AVX2 = false
