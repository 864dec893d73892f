package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// adcBatch synthesizes a batch the way a wearable front end produces
// one: integer ADC counts times a power-of-two LSB volts-per-count,
// plus an arbitrary (exactly representable) baseline offset.
func adcBatch(n int, seed uint64) []float64 {
	const lsb = 1.0 / (1 << 13) // ~122 µV steps on a 16-bit grid
	xs := make([]float64, n)
	state := seed
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		count := float64((state >> 33) % 4096) // 12-bit ADC
		xs[i] = -0.25 + count*lsb
	}
	return xs
}

// TestPushQLosslessRoundTrip: ADC-grid batches must take the quantized
// layout and decode to bit-identical float64 samples — the property
// that keeps every downstream decision unchanged by the wire format.
func TestPushQLosslessRoundTrip(t *testing.T) {
	c0 := adcBatch(256, 1)
	c1 := adcBatch(256, 2)
	raw := encode(t, func(e *Encoder) error { return e.Push("chb01", c0, c1) })
	m := decodeOne(t, raw)
	if m.Kind != KindPushQ {
		t.Fatalf("ADC-grid batch framed as %v, want push-q", m.Kind)
	}
	if m.Patient != "chb01" || len(m.C0) != len(c0) || len(m.C1) != len(c1) {
		t.Fatalf("push-q = %+v", m)
	}
	for i := range c0 {
		if math.Float64bits(m.C0[i]) != math.Float64bits(c0[i]) {
			t.Fatalf("c0[%d]: decoded %x, sent %x", i, math.Float64bits(m.C0[i]), math.Float64bits(c0[i]))
		}
		if math.Float64bits(m.C1[i]) != math.Float64bits(c1[i]) {
			t.Fatalf("c1[%d]: decoded %x, sent %x", i, math.Float64bits(m.C1[i]), math.Float64bits(c1[i]))
		}
	}
	// The point of the frame: 2 bytes per sample instead of 8. Nudging
	// one sample off the grid forces the float layout at equal length.
	offGrid := append([]float64(nil), c0...)
	offGrid[0] += 1e-9
	if float := encode(t, func(e *Encoder) error { return e.Push("chb01", offGrid, c1) }); len(raw) >= len(float)/2 {
		t.Fatalf("push-q frame is %d bytes, float frame %d — expected a large saving", len(raw), len(float))
	}
}

// TestPushQFallsBackToFloat: batches off any uint16 grid must take the
// float layout — quantization is an optimization, never an
// approximation.
func TestPushQFallsBackToFloat(t *testing.T) {
	grid := adcBatch(64, 3)
	offGrid := append([]float64(nil), grid...)
	offGrid[17] += 1e-9 // nudge one sample off the lattice
	cases := []struct {
		name   string
		c0, c1 []float64
	}{
		{"irrational", []float64{math.Pi, math.E, math.Sqrt2}, []float64{1, 2, 3}},
		{"one-sample-off", offGrid, grid},
		{"nan", []float64{1, math.NaN(), 3}, []float64{1, 2, 3}},
		{"inf", []float64{1, math.Inf(1), 3}, []float64{1, 2, 3}},
		{"huge-span", []float64{0, 1e300, -1e300}, []float64{1, 2, 3}},
		{"denormal", []float64{0, 5e-324, 1}, []float64{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := decodeOne(t, encode(t, func(e *Encoder) error { return e.Push("p", tc.c0, tc.c1) }))
			if m.Kind != KindPush {
				t.Fatalf("framed as %v, want the float push fallback", m.Kind)
			}
			for i := range tc.c0 {
				if math.Float64bits(m.C0[i]) != math.Float64bits(tc.c0[i]) {
					t.Fatalf("c0[%d] corrupted in float fallback", i)
				}
			}
		})
	}
}

// TestPushQConstantChannel: a flat channel (sensor railed, lead off)
// is the degenerate grid — span zero, every code zero.
func TestPushQConstantChannel(t *testing.T) {
	c0 := []float64{2.5, 2.5, 2.5, 2.5}
	c1 := []float64{-1, -1, -1, -1}
	m := decodeOne(t, encode(t, func(e *Encoder) error { return e.Push("p", c0, c1) }))
	if m.Kind != KindPushQ {
		t.Fatalf("constant batch framed as %v, want push-q", m.Kind)
	}
	for i := range c0 {
		if m.C0[i] != 2.5 || m.C1[i] != -1 {
			t.Fatalf("constant channels decoded as %v / %v", m.C0, m.C1)
		}
	}
	// Mixed ±0 is numerically constant but not bitwise reconstructible
	// from offset+0*scale; it must fall back rather than flip a zero sign.
	mixed := []float64{0, math.Copysign(0, -1), 0}
	m = decodeOne(t, encode(t, func(e *Encoder) error { return e.Push("p", mixed, c1) }))
	if m.Kind != KindPush {
		t.Fatalf("mixed ±0 framed as %v, want the float fallback", m.Kind)
	}
	if math.Signbit(m.C0[0]) || !math.Signbit(m.C0[1]) {
		t.Fatalf("zero signs corrupted: %v", m.C0)
	}
}

// TestPushQZeroAllocSteadyState: the quantize-and-frame path must reuse
// its code scratch — the hot wire path has the same allocation budget
// as the float encoder.
func TestPushQZeroAllocSteadyState(t *testing.T) {
	e := NewEncoder(io.Discard)
	c0, c1 := adcBatch(256, 6), adcBatch(256, 7)
	if err := e.Push("p", c0, c1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Push("p", c0, c1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // same bufio slack tolerance as TestEncoderReusesScratch
		t.Fatalf("quantized Push allocates %.1f objects per batch in steady state", allocs)
	}
}

// TestPushQTruncatedPayloadRejected: a PushQ body whose code count
// overruns the frame must error, mirroring the float bounds checks.
func TestPushQTruncatedPayloadRejected(t *testing.T) {
	raw := encode(t, func(e *Encoder) error {
		return e.Push("p", []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})
	})
	if m := decodeOne(t, raw); m.Kind != KindPushQ {
		t.Fatalf("setup framed as %v, want push-q", m.Kind)
	}
	for cut := 5; cut < len(raw)-4; cut += 3 {
		trunc := append([]byte(nil), raw[:cut]...)
		if _, err := NewDecoder(bytes.NewReader(trunc)).Next(); err == nil {
			t.Fatalf("decoder accepted a push-q frame truncated at %d", cut)
		}
	}
}

// BenchmarkPush times framing one second of two 256 Hz channels:
// /pushq on ADC-grid samples, which take the quantized layout, and
// /float on a batch whose second channel has one sample off the grid,
// so both channels are quantized before the float layout is written.
func BenchmarkPush(b *testing.B) {
	for _, bc := range benchBatches() {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEncoder(io.Discard)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Push("chb01", bc.c0, bc.c1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode times decoding the frames BenchmarkPush writes.
func BenchmarkDecode(b *testing.B) {
	for _, bc := range benchBatches() {
		b.Run(bc.name, func(b *testing.B) {
			raw := encode(b, func(e *Encoder) error { return e.Push("chb01", bc.c0, bc.c1) })
			r := bytes.NewReader(raw)
			d := NewDecoder(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(raw)
				d.r.Reset(r)
				if _, err := d.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type benchBatch struct {
	name   string
	c0, c1 []float64
}

func benchBatches() []benchBatch {
	c0, c1 := adcBatch(256, 1), adcBatch(256, 2)
	off := append([]float64(nil), c1...)
	off[200] += 1e-9
	return []benchBatch{{"pushq", c0, c1}, {"float", c0, off}}
}
