package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// pushReference frames a batch as the scalar codec did before the AVX2
// kernels: quantize both channels into uint16 scratch with
// quantizeChannel, then append offset, scale and codes; the float Push
// frame when either channel fails. FuzzPushMatchesReference holds Push
// and its Go loops to it byte for byte.
func pushReference(e *Encoder, patient string, c0, c1 []float64) error {
	q0 := make([]uint16, len(c0))
	q1 := make([]uint16, len(c1))
	o0, s0, ok := quantizeChannel(q0, c0)
	if ok {
		o1, s1, ok := quantizeChannel(q1, c1)
		if ok {
			e.begin(KindPushQ)
			e.appendString(patient)
			e.appendF64(o0)
			e.appendF64(s0)
			e.appendU16s(q0)
			e.appendF64(o1)
			e.appendF64(s1)
			e.appendU16s(q1)
			return e.frame()
		}
	}
	e.begin(KindPush)
	e.appendString(patient)
	e.appendFloats(c0)
	e.appendFloats(c1)
	return e.frame()
}

// quantizeChannel tries to express xs exactly as offset + code*scale
// with uint16 codes and a power-of-two scale, writing the codes into
// dst (len(dst) == len(xs)). ok reports whether EVERY sample
// reconstructs to its original bit pattern — the gate that keeps PushQ
// lossless; the caller falls back to the float layout otherwise. A
// power-of-two scale makes the check succeed for any data on an ADC
// grid (integer counts times a power-of-two LSB), which is what
// wearable front ends actually emit.
//
//selflearn:hotpath
func quantizeChannel(dst []uint16, xs []float64) (offset, scale float64, ok bool) {
	if len(xs) == 0 {
		return 0, 1, true
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x != x {
			return 0, 0, false
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := hi - lo
	if math.IsInf(span, 0) {
		return 0, 0, false
	}
	scale = 1.0
	if span > 0 {
		// Smallest power of two ≥ span/65535, via Frexp (span/65535 =
		// frac·2^exp with frac ∈ [0.5, 1)).
		frac, exp := math.Frexp(span / 65535)
		scale = math.Ldexp(1, exp)
		if frac == 0.5 {
			scale = math.Ldexp(1, exp-1)
		}
	}
	for i, x := range xs {
		c := math.Floor((x-lo)/scale + 0.5)
		if c < 0 || c > 65535 || math.Float64bits(lo+c*scale) != math.Float64bits(x) {
			return 0, 0, false
		}
		dst[i] = uint16(c)
	}
	return lo, scale, true
}

func (e *Encoder) appendU16s(qs []uint16) {
	e.appendU32(uint32(len(qs)))
	b := e.grow(2 * len(qs))
	for i := 0; len(b) >= 2; i++ {
		binary.LittleEndian.PutUint16(b, qs[i])
		b = b[2:]
	}
}

// qfloats reads one PushQ channel — offset, scale, then the uint16
// codes — and reconstructs the exact float64 samples the sender
// quantized (the encoder only emits PushQ when offset+code*scale is
// bit-identical to the original for every sample).
func (r *reader) qfloats() []float64 {
	offset := r.f64()
	scale := r.f64()
	n := r.u32()
	if r.err != nil || r.off+2*int(n) > len(r.b) {
		r.fail()
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = offset + float64(binary.LittleEndian.Uint16(r.b[r.off:]))*scale
		r.off += 2
	}
	return xs
}

// fuzzChannel draws one channel of n samples on a grid: integer counts
// of up to 16 bits (now and then 17, more steps than a code holds)
// times a power-of-two LSB, mostly around 2^−30…2^10 but also subnormal
// or spanning near MaxFloat64, plus an offset on the grid or, now and
// then, an arbitrary one that only a coarse LSB absorbs. Most such
// channels quantize. One kind in eight then plants a special: a sample
// off the grid, NaN of either sign, ±Inf, −0 (beside +0 or not) or a
// subnormal.
func fuzzChannel(rng *rand.Rand, n int, kind uint8) []float64 {
	xs := make([]float64, n)
	bits := 1 + rng.Intn(16)
	if rng.Intn(32) == 0 {
		bits = 17
	}
	exp := -30 + rng.Intn(40)
	switch rng.Intn(8) {
	case 0:
		exp = -1074 + rng.Intn(60)
	case 1:
		exp = 1023 - bits - rng.Intn(4)
	}
	lsb := math.Ldexp(1, exp)
	offset := float64(rng.Intn(2001)-1000) * lsb
	switch rng.Intn(16) {
	case 0, 1:
		offset = 0
	case 2:
		offset = rng.NormFloat64() * math.Ldexp(1, exp+bits)
	}
	for i := range xs {
		xs[i] = offset + float64(rng.Intn(1<<bits))*lsb
	}
	if n == 0 || kind%8 != 7 {
		return xs
	}
	at := rng.Intn(n)
	switch kind / 8 % 5 {
	case 0:
		xs[at] = math.Nextafter(xs[at], math.Inf(1))
	case 1:
		xs[at] = math.Copysign(math.NaN(), float64(1-2*rng.Intn(2)))
	case 2:
		xs[at] = math.Inf(1 - 2*rng.Intn(2))
	case 3:
		xs[at] = math.Copysign(0, -1)
		if rng.Intn(2) == 0 {
			xs[rng.Intn(n)] = 0
		}
	default:
		xs[at] = math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1<<12)), rng.NormFloat64())
	}
	return xs
}

// FuzzPushMatchesReference frames the same batch three ways — Push
// (on the AVX2 kernels where the CPU has them), push on the Go loops
// alone, and pushReference — and requires the same bytes from all
// three, over channels of 0–300 samples (so every remainder mod 4 and
// the kernels' empty and one-quad cases), grids from subnormal LSBs to
// spans near MaxFloat64, and planted NaN, ±Inf, −0, subnormals and
// single off-grid samples.
func FuzzPushMatchesReference(f *testing.F) {
	for i := 0; i < 24; i++ {
		f.Add(int64(i), uint16(256), uint16(256), uint8(i), uint8(i/8))
		f.Add(int64(i+100), uint16(i), uint16(i*13%301), uint8(i*5), uint8(i*3))
	}
	// Each special, planted in the first channel of 2×256 samples.
	for special := 0; special < 5; special++ {
		for i := 0; i < 4; i++ {
			f.Add(int64(1000+8*special+i), uint16(256), uint16(256), uint8(7+8*special), uint8(0))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n0, n1 uint16, kind0, kind1 uint8) {
		rng := rand.New(rand.NewSource(seed))
		c0 := fuzzChannel(rng, int(n0%301), kind0)
		c1 := fuzzChannel(rng, int(n1%301), kind1)
		want := encode(t, func(e *Encoder) error { return pushReference(e, "chb01", c0, c1) })
		if got := encode(t, func(e *Encoder) error { return e.Push("chb01", c0, c1) }); !bytes.Equal(got, want) {
			t.Fatalf("Push framed %d channel samples as kind %d in %d bytes, the reference as kind %d in %d", len(c0)+len(c1), got[4], len(got), want[4], len(want))
		}
		if got := encode(t, func(e *Encoder) error { return e.push("chb01", c0, c1, false) }); !bytes.Equal(got, want) {
			t.Fatalf("the Go loops framed kind %d in %d bytes, the reference kind %d in %d", got[4], len(got), want[4], len(want))
		}
	})
}

// FuzzDequantizeMatchesReference reads one PushQ channel of arbitrary
// offset, scale and codes through quantized (on the AVX2 kernel where
// the CPU has it) and through dequantize's Go loop, and requires
// qfloats' bits in every sample, NaN payloads included. Only where
// offset and code·scale are both NaN is any NaN accepted: which of two
// NaNs a sum returns is the compiler's choice of operand order, not
// fixed by the source.
func FuzzDequantizeMatchesReference(f *testing.F) {
	f.Add(math.Float64bits(-0.25), math.Float64bits(1.0/(1<<13)), []byte{1, 0, 2, 0, 3, 0, 4, 0, 0xff, 0xff})
	f.Add(math.Float64bits(1e300), math.Float64bits(math.Ldexp(1, 1008)), bytes.Repeat([]byte{0xff, 0xff, 0, 0x80}, 33))
	f.Add(math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.SmallestNonzeroFloat64), []byte{0, 0, 1, 0, 0, 0})
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), []byte{0, 0, 7, 0, 0, 1, 9, 9})
	f.Add(math.Float64bits(math.Copysign(math.NaN(), -1)), math.Float64bits(0.5), []byte{3, 0, 7, 0, 0, 1, 9, 9, 1, 0})
	f.Add(math.Float64bits(2.5), uint64(0xfff4000000000002), []byte{3, 0, 7, 0, 0, 1, 9, 9})
	f.Add(math.Float64bits(math.Inf(1)), uint64(0x7ff0000000000001), []byte{0, 0, 7, 0})
	f.Fuzz(func(t *testing.T, offset, scale uint64, codes []byte) {
		n := len(codes) / 2
		body := binary.LittleEndian.AppendUint64(nil, offset)
		body = binary.LittleEndian.AppendUint64(body, scale)
		body = binary.LittleEndian.AppendUint32(body, uint32(n))
		body = append(body, codes[:2*n]...)
		want := (&reader{b: body}).qfloats()
		got := (&reader{b: body}).quantized()
		golang := make([]float64, n)
		dequantize(golang, codes, math.Float64frombits(offset), math.Float64frombits(scale), false)
		same := func(x float64, i int) bool {
			if math.Float64bits(x) == math.Float64bits(want[i]) {
				return true
			}
			product := float64(binary.LittleEndian.Uint16(codes[2*i:])) * math.Float64frombits(scale)
			return math.IsNaN(x) && math.IsNaN(math.Float64frombits(offset)) && math.IsNaN(product)
		}
		for i := range want {
			if !same(got[i], i) {
				t.Fatalf("sample %d of %d: quantized %x, reference %x", i, n, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if !same(golang[i], i) {
				t.Fatalf("sample %d of %d: Go loop %x, reference %x", i, n, math.Float64bits(golang[i]), math.Float64bits(want[i]))
			}
		}
	})
}
