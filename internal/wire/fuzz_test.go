package wire

import (
	"bytes"
	"io"
	"testing"

	"selflearn/internal/serve"
)

// fuzzSeeds encodes one frame of every kind — the corpus FuzzDecode
// mutates from, so every parse branch (including the model frames) is
// reachable from the seeds. The frames come from the same kindFrames
// table the parity test checks, so the corpus provably covers every
// named kind, plus edge-case frames the canonical table doesn't carry.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	one := func(fn func(*Encoder) error) []byte {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := fn(e); err != nil {
			tb.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	frames := kindFrames()
	var seeds [][]byte
	for _, k := range allKinds() {
		fn, ok := frames[k]
		if !ok {
			tb.Fatalf("kind %v has no canonical frame in kindFrames; the fuzz corpus would miss it", k)
		}
		seeds = append(seeds, one(fn))
	}
	// Edge cases beyond the canonical frames: the "no model" reply, a
	// model-updated Event with no error message (the frame routers read
	// their version tables from), and an empty batch, which frames as
	// PushQ with zero-length code arrays.
	seeds = append(seeds, one(func(e *Encoder) error { return e.ModelPut(0, "chb02", 0, nil) }))
	seeds = append(seeds, one(func(e *Encoder) error {
		return e.Event(serve.Event{Kind: serve.EventModelUpdated, Patient: "chb02", Version: 3})
	}))
	seeds = append(seeds, one(func(e *Encoder) error { return e.Push("chb02", nil, nil) }))
	return seeds
}

// FuzzDecode feeds arbitrary byte streams through the frame decoder: a
// malformed, truncated, or hostile frame must surface as an error —
// never a panic or a runaway allocation — because one bad client frame
// panicking the decoder would take a whole shardd (and every patient it
// serves) down with it.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	// A multi-frame stream and a hostile length prefix, so mutation
	// starts from the stream-boundary and bounds-check branches too.
	var multi []byte
	for _, seed := range fuzzSeeds(f) {
		multi = append(multi, seed...)
	}
	f.Add(multi)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for {
			m, err := d.Next()
			if err != nil {
				// Every error path is acceptable; only panics are bugs.
				return
			}
			// A decoded frame must carry a known kind: parse rejects
			// unknown kind bytes, so anything that got through is one of
			// the declared constants.
			if m.Kind < KindHello || m.Kind > KindAuditPush {
				t.Fatalf("decoder accepted unknown kind %d", m.Kind)
			}
		}
	})
}

// TestFuzzSeedsDecode pins that every fuzz seed actually decodes — a
// seed rejected by parse would silently fuzz error paths only.
func TestFuzzSeedsDecode(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		d := NewDecoder(bytes.NewReader(seed))
		if _, err := d.Next(); err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("seed %d has trailing data: %v", i, err)
		}
	}
}
