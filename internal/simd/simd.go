// Package simd reports which vector instruction sets the assembly
// kernels of this module may use. The probe runs once, at start-up;
// no flag, environment variable, build tag or config field overrides
// it, so a host takes the kernels exactly when its CPU and OS have
// them. Off amd64 every answer is false and only the Go paths are
// compiled.
package simd
