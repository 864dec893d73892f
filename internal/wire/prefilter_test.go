package wire

import (
	"bytes"
	"io"
	"math"
	"testing"

	"selflearn/internal/rt"
	"selflearn/internal/serve"
)

func testPrefilterCfg() serve.PrefilterConfig {
	return serve.PrefilterConfig{
		Gate:           rt.GateConfig{Factor: 2.5, HistoryWindows: 64},
		AuditEvery:     32,
		DriftThreshold: 3,
	}
}

// TestPrefilterFramesRoundTrip: the prefilter family must decode back
// field-for-field, AuditPush with bit-identical samples.
func TestPrefilterFramesRoundTrip(t *testing.T) {
	cfg := testPrefilterCfg()
	m := decodeOne(t, encode(t, func(e *Encoder) error { return e.PrefilterDecl("chb01", cfg) }))
	if m.Kind != KindPrefilterDecl || m.Patient != "chb01" || m.Prefilter != cfg {
		t.Fatalf("prefilter-decl = %+v", m)
	}

	d := serve.Digest{Windows: 59, SumAmp: 12.5, MinAmp: 0.0625, MaxAmp: 1.75}
	m = decodeOne(t, encode(t, func(e *Encoder) error { return e.PushDigest("chb01", d) }))
	if m.Kind != KindPushDigest || m.Patient != "chb01" || m.Digest != d {
		t.Fatalf("push-digest = %+v", m)
	}

	c0 := []float64{1.5, -2.25, math.Pi}
	c1 := []float64{0, 1e-300, 4}
	m = decodeOne(t, encode(t, func(e *Encoder) error { return e.AuditPush("chb01", c0, c1) }))
	if m.Kind != KindAuditPush || m.Patient != "chb01" {
		t.Fatalf("audit-push = %+v", m)
	}
	for i := range c0 {
		if math.Float64bits(m.C0[i]) != math.Float64bits(c0[i]) ||
			math.Float64bits(m.C1[i]) != math.Float64bits(c1[i]) {
			t.Fatalf("audit-push samples corrupted at %d: %v / %v", i, m.C0, m.C1)
		}
	}
}

// TestPrefilterTruncatedPayloadRejected: cut prefilter frame bodies
// must error, mirroring the PushQ truncation test.
func TestPrefilterTruncatedPayloadRejected(t *testing.T) {
	frames := [][]byte{
		encode(t, func(e *Encoder) error { return e.PrefilterDecl("chb01", testPrefilterCfg()) }),
		encode(t, func(e *Encoder) error {
			return e.PushDigest("chb01", serve.Digest{Windows: 9, SumAmp: 1, MinAmp: 0.5, MaxAmp: 2})
		}),
		encode(t, func(e *Encoder) error { return e.AuditPush("chb01", []float64{1, 2}, []float64{3, 4}) }),
	}
	for fi, raw := range frames {
		for cut := 5; cut < len(raw)-1; cut += 2 {
			trunc := append([]byte(nil), raw[:cut]...)
			if _, err := NewDecoder(bytes.NewReader(trunc)).Next(); err == nil {
				t.Fatalf("frame %d: decoder accepted a body truncated at %d", fi, cut)
			}
		}
	}
}

// TestDigestZeroAllocSteadyState: the digest is the stream's steady
// state under prefiltering — it must frame without garbage, like Push.
func TestDigestZeroAllocSteadyState(t *testing.T) {
	e := NewEncoder(io.Discard)
	d := serve.Digest{Windows: 60, SumAmp: 3, MinAmp: 0.01, MaxAmp: 0.2}
	if err := e.PushDigest("p", d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.PushDigest("p", d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // same bufio slack tolerance as TestEncoderReusesScratch
		t.Fatalf("PushDigest allocates %.1f objects per frame in steady state", allocs)
	}
}

// TestBytesWritten: the uplink accounting must equal the exact framed
// bytes (headers included) — the witness's wire-byte ratios depend on it.
func TestBytesWritten(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := e.PushDigest("p", serve.Digest{Windows: 1, SumAmp: 1, MinAmp: 1, MaxAmp: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.BytesWritten(), uint64(buf.Len()); got != want {
		t.Fatalf("BytesWritten = %d, wire carried %d", got, want)
	}
}
