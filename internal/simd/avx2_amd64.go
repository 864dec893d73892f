package simd

// AVX2 reports that the CPU has AVX2 and that the OS saves the YMM
// registers: CPUID leaf 1's OSXSAVE and AVX bits, XCR0's SSE and AVX
// state bits, and leaf 7's AVX2 bit. Read it, never write it.
var AVX2 = cpuHasAVX2()

func cpuHasAVX2() bool
