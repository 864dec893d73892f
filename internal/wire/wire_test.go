package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"selflearn/internal/rt"
	"selflearn/internal/serve"
)

// encode runs fn against a fresh encoder and returns the framed bytes.
func encode(t *testing.T, fn func(*Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := fn(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeOne(t *testing.T, raw []byte) Msg {
	t.Helper()
	m, err := NewDecoder(bytes.NewReader(raw)).Next()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allKinds enumerates every named frame kind by probing String()'s
// default branch, so tests built on it cannot silently fall behind a
// kind added to the codec.
func allKinds() []Kind {
	var out []Kind
	for k := 1; k < 256; k++ {
		if Kind(k).String() != fmt.Sprintf("kind(%d)", k) {
			out = append(out, Kind(k))
		}
	}
	return out
}

// kindFrames maps every frame kind to one canonical encode call. Both
// the parity test and the fuzz corpus derive from this table, so a new
// kind must land here to land at all.
func kindFrames() map[Kind]func(*Encoder) error {
	ev := serve.Event{
		Kind: serve.EventRetrain, Patient: "chb01",
		Time: time.Unix(0, 1712345678901234567), Seq: 9, Version: 2,
		Err: errors.New("labeling failed"),
	}
	return map[Kind]func(*Encoder) error{
		KindHello: func(e *Encoder) error { return e.Hello() },
		// 1e-300 is off any uint16 grid spanning the channel, so this
		// batch cannot quantize and the float layout is guaranteed.
		KindPush: func(e *Encoder) error { return e.Push("chb01", []float64{1, 2.5, -3}, []float64{0, 1e-300, 9}) },
		// Both channels sit on uint16 grids (integers; quarters), so the
		// encoder auto-selects the quantized layout.
		KindPushQ: func(e *Encoder) error {
			return e.Push("chb01", []float64{1, 2, 3}, []float64{0.25, 0.5, 0.75})
		},
		KindConfirm:  func(e *Encoder) error { return e.Confirm("ward-3/bed 12") },
		KindEvent:    func(e *Encoder) error { return e.Event(ev) },
		KindStatsReq: func(e *Encoder) error { return e.StatsReq(7) },
		KindStats:    func(e *Encoder) error { return e.Stats(7, serve.Stats{Sessions: 3, Windows: 96, Alarms: 2}) },
		KindPing:     func(e *Encoder) error { return e.Ping(99) },
		KindPong:     func(e *Encoder) error { return e.Pong(99) },
		KindModelGet: func(e *Encoder) error { return e.ModelGet(11, "chb01") },
		KindModelPut: func(e *Encoder) error {
			return e.ModelPut(11, "chb01", 5, []byte(`{"trees":[],"oob_error":0.5}`))
		},
		KindModelAnnounce: func(e *Encoder) error { return e.ModelAnnounce("chb01", 5) },
		KindPrefilterDecl: func(e *Encoder) error {
			return e.PrefilterDecl("chb01", serve.PrefilterConfig{
				Gate:       rt.GateConfig{Factor: 2.5, HistoryWindows: 64},
				AuditEvery: 32, DriftThreshold: 3,
			})
		},
		KindPushDigest: func(e *Encoder) error {
			return e.PushDigest("chb01", serve.Digest{Windows: 17, SumAmp: 4.25, MinAmp: 0.125, MaxAmp: 0.75})
		},
		KindAuditPush: func(e *Encoder) error {
			return e.AuditPush("chb01", []float64{1, 2.5, -3}, []float64{0, 1e-300, 9})
		},
		KindAuditRequest: func(e *Encoder) error { return e.AuditRequest("chb01") },
	}
}

// TestFrameKindParity round-trips one frame of every kind the codec
// names: each must have a canonical encoding in kindFrames, and each
// must decode back to the same kind. This is the test-side twin of the
// wirebounds analyzer's encode/decode switch parity check.
func TestFrameKindParity(t *testing.T) {
	frames := kindFrames()
	kinds := allKinds()
	if len(frames) != len(kinds) {
		t.Errorf("kindFrames has %d entries for %d named kinds", len(frames), len(kinds))
	}
	for _, k := range kinds {
		fn, ok := frames[k]
		if !ok {
			t.Errorf("kind %v has no canonical frame in kindFrames", k)
			continue
		}
		m := decodeOne(t, encode(t, fn))
		if m.Kind != k {
			t.Errorf("frame encoded as %v decoded as %v", k, m.Kind)
		}
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	ts := time.Unix(0, 1712345678901234567)
	stats := serve.Stats{
		Sessions: 3, StreamsOpen: 4, SessionsCreated: 5, SessionsEvicted: 1,
		Batches: 100, BatchesDropped: 2, BatchesShed: 7, Windows: 96,
		WindowsPerSec: 31148.5, Alarms: 12, Confirms: 3, ConfirmsRejected: 1,
		ConfirmsDropped: 1, Retrains: 3, RetrainErrors: 1, StreamErrors: 0,
		ModelsCached: 3, StoreErrors: 2, WindowsSuppressed: 5000,
		AuditSamples: 40, AuditDisagreements: 2, PrefilterDrift: 1,
		EventsDropped: 9, QueueDepth: 17, Uptime: 90 * time.Second,
	}
	steps := []func() error{
		e.Hello,
		func() error { return e.Push("ward-3/bed 12", []float64{1.5, -2.25, math.Pi}, []float64{0, 1e-300, 4}) },
		func() error { return e.Confirm("chb01") },
		func() error {
			return e.Event(serve.Event{Kind: serve.EventAlarm, Patient: "chb01", Time: ts, Seq: 42})
		},
		func() error {
			return e.Event(serve.Event{Kind: serve.EventRetrain, Patient: "p", Time: ts, Seq: 43, Err: errors.New("labeling failed")})
		},
		func() error {
			return e.Event(serve.Event{Kind: serve.EventModelUpdated, Patient: "chb01", Time: ts, Seq: 44, Version: 3})
		},
		func() error { return e.StatsReq(7) },
		func() error { return e.Stats(7, stats) },
		func() error { return e.Ping(99) },
		func() error { return e.Pong(99) },
		func() error { return e.ModelGet(11, "chb01") },
		func() error { return e.ModelPut(11, "chb01", 5, []byte(`{"trees":[]}`)) },
		func() error { return e.ModelPut(0, "chb02", 0, nil) }, // "no model" reply
		func() error { return e.ModelAnnounce("chb01", 5) },
	}
	for i, fn := range steps {
		if err := fn(); err != nil {
			t.Fatalf("encode step %d: %v", i, err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(&buf)
	next := func() Msg {
		t.Helper()
		m, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := next(); m.Kind != KindHello || m.Version != Version {
		t.Fatalf("hello = %+v", m)
	}
	m := next()
	if m.Kind != KindPush || m.Patient != "ward-3/bed 12" {
		t.Fatalf("push = %+v", m)
	}
	if len(m.C0) != 3 || m.C0[2] != math.Pi || len(m.C1) != 3 || m.C1[1] != 1e-300 {
		t.Fatalf("push channels = %v / %v", m.C0, m.C1)
	}
	if m := next(); m.Kind != KindConfirm || m.Patient != "chb01" {
		t.Fatalf("confirm = %+v", m)
	}
	m = next()
	if m.Kind != KindEvent || m.Event.Kind != serve.EventAlarm || m.Event.Patient != "chb01" ||
		!m.Event.Time.Equal(ts) || m.Event.Seq != 42 || m.Event.Err != nil {
		t.Fatalf("alarm event = %+v", m.Event)
	}
	m = next()
	if m.Event.Err == nil || m.Event.Err.Error() != "labeling failed" {
		t.Fatalf("retrain event error = %v", m.Event.Err)
	}
	m = next()
	if m.Event.Kind != serve.EventModelUpdated || m.Event.Version != 3 || m.Event.Seq != 44 {
		t.Fatalf("model-updated event = %+v", m.Event)
	}
	if m := next(); m.Kind != KindStatsReq || m.Token != 7 {
		t.Fatalf("stats-req = %+v", m)
	}
	m = next()
	if m.Kind != KindStats || m.Token != 7 || m.Stats != stats {
		t.Fatalf("stats = %+v, want %+v", m.Stats, stats)
	}
	if m := next(); m.Kind != KindPing || m.Token != 99 {
		t.Fatalf("ping = %+v", m)
	}
	if m := next(); m.Kind != KindPong || m.Token != 99 {
		t.Fatalf("pong = %+v", m)
	}
	if m := next(); m.Kind != KindModelGet || m.Token != 11 || m.Patient != "chb01" {
		t.Fatalf("model-get = %+v", m)
	}
	m = next()
	if m.Kind != KindModelPut || m.Token != 11 || m.Patient != "chb01" ||
		m.ModelVersion != 5 || string(m.Model) != `{"trees":[]}` {
		t.Fatalf("model-put = %+v", m)
	}
	m = next()
	if m.Kind != KindModelPut || m.Patient != "chb02" || m.ModelVersion != 0 || len(m.Model) != 0 {
		t.Fatalf("empty model-put = %+v", m)
	}
	if m := next(); m.Kind != KindModelAnnounce || m.Patient != "chb01" || m.ModelVersion != 5 {
		t.Fatalf("model-announce = %+v", m)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last frame err = %v, want io.EOF", err)
	}
}

// TestModelPutPayloadOutlivesDecoderBuffer: the checkpoint payload must
// be copied out of the decoder's reusable frame buffer — a replica held
// across the next frame would otherwise be silently corrupted.
func TestModelPutPayloadOutlivesDecoderBuffer(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	payload := []byte(`{"trees":[1,2,3]}`)
	if err := e.ModelPut(1, "p", 2, payload); err != nil {
		t.Fatal(err)
	}
	big := make([]float64, 1024)
	if err := e.Push("p", big, big); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	m, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil { // overwrite the frame buffer
		t.Fatal(err)
	}
	if string(m.Model) != string(payload) {
		t.Fatalf("model payload corrupted after next frame: %q", m.Model)
	}
}

func TestEmptyBatchRoundTrips(t *testing.T) {
	// Empty channels quantize trivially, so the encoder frames them as
	// PushQ.
	m := decodeOne(t, encode(t, func(e *Encoder) error { return e.Push("p", nil, nil) }))
	if m.Kind != KindPushQ || len(m.C0) != 0 || len(m.C1) != 0 {
		t.Fatalf("empty push = %+v", m)
	}
}

// TestCutMidFrame: a connection dying inside a frame surfaces as
// ErrUnexpectedEOF, distinguishable from a clean close on a boundary.
func TestCutMidFrame(t *testing.T) {
	raw := encode(t, func(e *Encoder) error { return e.Push("p", []float64{1, 2, 3}, []float64{4, 5, 6}) })
	for _, cut := range []int{2, 5, len(raw) - 1} {
		if _, err := NewDecoder(bytes.NewReader(raw[:cut])).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestCorruptFramesRejected: lying length fields inside the body must
// produce an error, not a crash or a silent misparse.
func TestCorruptFramesRejected(t *testing.T) {
	raw := encode(t, func(e *Encoder) error { return e.Push("patient", []float64{1}, []float64{2}) })
	// Inflate the patient-string length beyond the body.
	corrupt := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(corrupt[5:], 1<<30) // body starts at 4, kind byte at 4, str len at 5
	if _, err := NewDecoder(bytes.NewReader(corrupt)).Next(); err == nil {
		t.Fatal("decoder accepted a string length beyond the frame")
	}
	// Unknown kind byte.
	unknown := append([]byte(nil), raw...)
	unknown[4] = 0xEE
	if _, err := NewDecoder(bytes.NewReader(unknown)).Next(); err == nil {
		t.Fatal("decoder accepted an unknown frame kind")
	}
	// Trailing garbage inside a framed body.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Ping(1); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	padded := buf.Bytes()
	padded = append(padded, 0xFF)
	binary.LittleEndian.PutUint32(padded[0:], uint32(len(padded)-4))
	if _, err := NewDecoder(bytes.NewReader(padded)).Next(); err == nil {
		t.Fatal("decoder accepted trailing bytes in a frame body")
	}
}

// TestOversizedFrameRejected: a hostile or corrupt length prefix must
// be refused before any allocation of that size.
func TestOversizedFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := NewDecoder(bytes.NewReader(hdr[:])).Next(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestEncoderReusesScratch: steady-state push encoding must not grow
// garbage per batch — the scratch body buffer is reused once sized.
func TestEncoderReusesScratch(t *testing.T) {
	e := NewEncoder(io.Discard)
	c0, c1 := make([]float64, 256), make([]float64, 256)
	if err := e.Push("p", c0, c1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Push("p", c0, c1); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc of slack is tolerated for bufio internals; the float
	// payload itself (4 KB/batch) must not be reallocated.
	if allocs > 1 {
		t.Fatalf("Push allocates %.1f objects per batch in steady state", allocs)
	}
}
