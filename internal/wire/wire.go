// Package wire is the length-prefixed binary codec the cluster
// transport speaks between a serving front end (internal/cluster.Router
// inside cmd/loadgen -cluster) and shardd worker processes (cmd/shardd).
//
// Every frame is a little-endian uint32 body length followed by the
// body: one kind byte and a kind-specific payload. Payload scalars are
// little-endian fixed width; strings carry a uint32 length; float
// slices carry a uint32 count followed by IEEE-754 bits. The choice is
// deliberately boring — a replayable, inspectable framing with no
// reflection and no per-field names, because the hot message (a
// one-second two-channel sample batch) is ~4 KB of floats and the
// encoder must not shred it into garbage.
//
// The protocol is versioned by the Hello exchange: both sides send
// KindHello carrying Version first and refuse a peer that disagrees —
// an exact match, because every peer is built from the same source —
// so field-order changes here only require bumping Version.
//
// Client → shard: Hello, Push, PushQ, Confirm, StatsReq, Ping,
// ModelGet, ModelPut (failover checkpoint transfer), PrefilterDecl,
// PushDigest, AuditPush (edge prefilter).
// Shard → client: Hello, Event, Stats, Pong, ModelPut (ModelGet reply),
// ModelAnnounce, AuditRequest.
// Shard → shard: Hello, ModelPut (checkpoint replication).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"selflearn/internal/serve"
)

// Version is the protocol revision exchanged in Hello frames. Bump it
// on any change to frame layout (including serve.Stats gaining fields);
// peers accept only an exact match, so there is one layout per kind.
const Version = 5

// MaxFrame bounds a frame body so a corrupt or hostile length prefix
// cannot make the decoder allocate gigabytes. 16 MiB fits >500 s of
// two-channel samples at 1 kHz in one Push — far beyond any real batch.
const MaxFrame = 16 << 20

// ErrFrameTooLarge is returned by Decoder.Next for a frame whose
// declared body exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Kind discriminates frame bodies.
type Kind uint8

const (
	kindInvalid Kind = iota
	// KindHello opens a connection in both directions: payload is the
	// protocol Version.
	KindHello
	// KindPush carries one patient's sample batch: patient, then the
	// two synchronized channels.
	KindPush
	// KindConfirm carries a patient's seizure confirmation.
	KindConfirm
	// KindEvent carries one serve.Event from shard to client.
	KindEvent
	// KindStatsReq asks the shard for a stats snapshot; Token correlates
	// the KindStats reply.
	KindStatsReq
	// KindStats is the snapshot reply: Token, then serve.Stats.
	KindStats
	// KindPing and KindPong are the health probe; Pong echoes the
	// ping's Token.
	KindPing
	KindPong
	// KindModelGet asks the peer for a patient's current model
	// checkpoint; Token correlates the KindModelPut reply.
	KindModelGet
	// KindModelPut carries one versioned model checkpoint (the JSON
	// forest interchange format). It flows shard→shard as a replication
	// push, client→shard as a failover transfer, and shard→client as
	// the ModelGet reply — where ModelVersion 0 with an empty payload
	// means "no model". The payload is capped by MaxFrame like every
	// frame body; forest checkpoints are a few hundred KB at most.
	KindModelPut
	// KindModelAnnounce advertises that the sender now serves a patient
	// at a model version, without the checkpoint payload — how routers
	// keep their per-patient version tables current.
	KindModelAnnounce
	// KindPushQ carries one patient's sample batch quantized to
	// uint16 steps on a per-channel affine grid: patient, then per
	// channel an offset and power-of-two scale (float64 each), a uint32
	// count, and count little-endian uint16 codes. The encoder emits it
	// only when every sample reconstructs bitwise as offset+code*scale —
	// true for ADC-grid data, where the frame is ~4× smaller than Push —
	// and falls back to Push otherwise, so decoding is always lossless
	// and decisions are identical to the float frame's.
	KindPushQ
	// KindPrefilterDecl announces a stream's client-side stage-1
	// prefilter at stream open: patient, then the gate's trigger factor
	// (float64), baseline history length, proactive audit sampling
	// period, and drift threshold (uint32 each). The shard arms its
	// audit mirror from this declaration.
	KindPrefilterDecl
	// KindPushDigest summarizes a span of suppressed windows
	// instead of their full samples: patient, window count (uint32),
	// then the span's sum/min/max mean-absolute-amplitude (float64
	// each) — ~40 bytes standing in for up to a minute of full-rate
	// batches, the frame that delivers the 100–1000x uplink reduction.
	KindPushDigest
	// KindAuditPush ships one suppressed window at full rate for
	// shard-side stage-2 audit replay: same layout as Push. The window
	// stays suppressed (it is covered by the digest that precedes it);
	// the shard only checks whether stage 2 agrees it was droppable.
	KindAuditPush
	// KindAuditRequest asks a prefiltering client to ship its next
	// suppressed window as an AuditPush: patient. Sent by shards when a
	// stream that declared no proactive sampling runs unaudited.
	KindAuditRequest
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindPush:
		return "push"
	case KindConfirm:
		return "confirm"
	case KindEvent:
		return "event"
	case KindStatsReq:
		return "stats-req"
	case KindStats:
		return "stats"
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	case KindModelGet:
		return "model-get"
	case KindModelPut:
		return "model-put"
	case KindModelAnnounce:
		return "model-announce"
	case KindPushQ:
		return "push-q"
	case KindPrefilterDecl:
		return "prefilter-decl"
	case KindPushDigest:
		return "push-digest"
	case KindAuditPush:
		return "audit-push"
	case KindAuditRequest:
		return "audit-request"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is one decoded frame. Kind selects which fields are meaningful;
// the rest are zero.
type Msg struct {
	Kind         Kind
	Version      uint32                // Hello
	Patient      string                // Push, Confirm, ModelGet, ModelPut, ModelAnnounce, prefilter family
	C0, C1       []float64             // Push, AuditPush
	Event        serve.Event           // Event
	Stats        serve.Stats           // Stats
	Token        uint64                // StatsReq, Stats, Ping, Pong, ModelGet, ModelPut
	ModelVersion uint64                // ModelPut, ModelAnnounce
	Model        []byte                // ModelPut: JSON forest checkpoint (empty = no model)
	Prefilter    serve.PrefilterConfig // PrefilterDecl
	Digest       serve.Digest          // PushDigest
}

// Encoder writes frames through an internal bufio.Writer. It is not
// safe for concurrent use; connection owners serialize writers with a
// mutex. Flush must be called when the caller wants buffered frames on
// the wire (senders flush when their queue goes idle).
type Encoder struct {
	w       *bufio.Writer
	buf     []byte
	q0, q1  []uint16 // Push quantization scratch, reused per frame
	written uint64   // total framed bytes (header + body), for uplink accounting
}

// NewEncoder returns an encoder framing onto w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 64<<10)}
}

// Flush pushes buffered frames to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

func (e *Encoder) appendU8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) appendU32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) appendU64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) appendI64(v int64)  { e.appendU64(uint64(v)) }
func (e *Encoder) appendF64(v float64) {
	e.appendU64(math.Float64bits(v))
}

func (e *Encoder) appendString(s string) {
	e.appendU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// grow extends the scratch body by n bytes in one step and returns the
// new region — the bulk-append primitive under the float and uint16
// payload writers, replacing per-element append growth checks.
func (e *Encoder) grow(n int) []byte {
	if cap(e.buf) < len(e.buf)+n {
		grown := make([]byte, len(e.buf), 2*len(e.buf)+n)
		copy(grown, e.buf)
		e.buf = grown
	}
	b := e.buf[len(e.buf) : len(e.buf)+n]
	e.buf = e.buf[:len(e.buf)+n]
	return b
}

func (e *Encoder) appendFloats(xs []float64) {
	e.appendU32(uint32(len(xs)))
	b := e.grow(8 * len(xs))
	for i := 0; len(b) >= 8; i++ {
		binary.LittleEndian.PutUint64(b, math.Float64bits(xs[i]))
		b = b[8:]
	}
}

func (e *Encoder) appendU16s(qs []uint16) {
	e.appendU32(uint32(len(qs)))
	b := e.grow(2 * len(qs))
	for i := 0; len(b) >= 2; i++ {
		binary.LittleEndian.PutUint16(b, qs[i])
		b = b[2:]
	}
}

func (e *Encoder) appendBytes(b []byte) {
	e.appendU32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// begin resets the scratch body and stamps the kind byte.
func (e *Encoder) begin(k Kind) {
	e.buf = e.buf[:0]
	e.appendU8(uint8(k))
}

// frame writes the pending body as one length-prefixed frame. The
// scratch buffer is reused across frames, so steady-state encoding
// allocates nothing once it has grown to the largest batch.
func (e *Encoder) frame() error {
	if len(e.buf) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(e.buf)))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := e.w.Write(e.buf)
	if err == nil {
		e.written += uint64(4 + len(e.buf))
	}
	return err
}

// BytesWritten returns the total framed bytes (headers + bodies) this
// encoder has emitted — the exact bytes-on-the-wire accounting behind
// uplink-reduction measurements. Not synchronized; read it where the
// encoder is owned (connection writers hold their write mutex).
func (e *Encoder) BytesWritten() uint64 { return e.written }

// Hello writes the version-exchange frame.
func (e *Encoder) Hello() error {
	e.begin(KindHello)
	e.appendU32(Version)
	return e.frame()
}

// Push writes one sample batch frame. It first tries the quantized
// PushQ layout — emitted only when every sample in both channels
// reconstructs bitwise from its uint16 code, so the receiver always
// recovers the exact float64 stream and downstream decisions cannot
// drift. Data that doesn't sit on an affine uint16 grid gets the float
// Push frame.
//
//selflearn:hotpath
func (e *Encoder) Push(patient string, c0, c1 []float64) error {
	if cap(e.q0) < len(c0) {
		e.q0 = make([]uint16, len(c0))
	}
	if cap(e.q1) < len(c1) {
		e.q1 = make([]uint16, len(c1))
	}
	o0, s0, ok := quantizeChannel(e.q0[:len(c0)], c0)
	if ok {
		o1, s1, ok := quantizeChannel(e.q1[:len(c1)], c1)
		if ok {
			e.begin(KindPushQ)
			e.appendString(patient)
			e.appendF64(o0)
			e.appendF64(s0)
			e.appendU16s(e.q0[:len(c0)])
			e.appendF64(o1)
			e.appendF64(s1)
			e.appendU16s(e.q1[:len(c1)])
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

// Confirm writes one confirmation frame.
//
//selflearn:hotpath
func (e *Encoder) Confirm(patient string) error {
	e.begin(KindConfirm)
	e.appendString(patient)
	return e.frame()
}

// Event writes one event frame. The error (if any) crosses as its
// message string.
//
//selflearn:hotpath
func (e *Encoder) Event(ev serve.Event) error {
	e.begin(KindEvent)
	e.appendU8(uint8(ev.Kind))
	e.appendString(ev.Patient)
	e.appendI64(ev.Time.UnixNano())
	e.appendU64(ev.Seq)
	e.appendU64(ev.Version)
	e.appendF64(ev.StreamTime)
	msg := ""
	if ev.Err != nil {
		msg = ev.Err.Error()
	}
	e.appendString(msg)
	return e.frame()
}

// PrefilterDecl writes a stream's stage-1 prefilter declaration.
func (e *Encoder) PrefilterDecl(patient string, cfg serve.PrefilterConfig) error {
	e.begin(KindPrefilterDecl)
	e.appendString(patient)
	e.appendF64(cfg.Gate.Factor)
	e.appendU32(uint32(cfg.Gate.HistoryWindows))
	e.appendU32(uint32(cfg.AuditEvery))
	e.appendU32(uint32(cfg.DriftThreshold))
	return e.frame()
}

// PushDigest writes one suppressed-span digest.
//
//selflearn:hotpath
func (e *Encoder) PushDigest(patient string, d serve.Digest) error {
	e.begin(KindPushDigest)
	e.appendString(patient)
	e.appendU32(d.Windows)
	e.appendF64(d.SumAmp)
	e.appendF64(d.MinAmp)
	e.appendF64(d.MaxAmp)
	return e.frame()
}

// AuditPush writes one audit-sampled suppressed window at full rate —
// the Push layout under its own kind so the shard replays it through
// stage 2 instead of the patient's live feature stream.
//
//selflearn:hotpath
func (e *Encoder) AuditPush(patient string, c0, c1 []float64) error {
	e.begin(KindAuditPush)
	e.appendString(patient)
	e.appendFloats(c0)
	e.appendFloats(c1)
	return e.frame()
}

// AuditRequest asks a prefiltering client for an audit sample.
func (e *Encoder) AuditRequest(patient string) error {
	e.begin(KindAuditRequest)
	e.appendString(patient)
	return e.frame()
}

// ModelGet writes a model request carrying a correlation token.
func (e *Encoder) ModelGet(token uint64, patient string) error {
	e.begin(KindModelGet)
	e.appendU64(token)
	e.appendString(patient)
	return e.frame()
}

// ModelPut writes one versioned model checkpoint. As a ModelGet reply,
// token echoes the request's; unsolicited pushes (replication, failover
// transfer) use token 0. A checkpoint larger than MaxFrame is refused
// with ErrFrameTooLarge rather than shredded — the model is then simply
// not replicated, which the monotonic install path tolerates.
func (e *Encoder) ModelPut(token uint64, patient string, version uint64, checkpoint []byte) error {
	e.begin(KindModelPut)
	e.appendU64(token)
	e.appendString(patient)
	e.appendU64(version)
	e.appendBytes(checkpoint)
	return e.frame()
}

// ModelAnnounce writes a payload-free model version advertisement.
func (e *Encoder) ModelAnnounce(patient string, version uint64) error {
	e.begin(KindModelAnnounce)
	e.appendString(patient)
	e.appendU64(version)
	return e.frame()
}

// StatsReq writes a stats request carrying a correlation token.
func (e *Encoder) StatsReq(token uint64) error {
	e.begin(KindStatsReq)
	e.appendU64(token)
	return e.frame()
}

// Stats writes a stats reply. Fields cross in serve.Stats declaration
// order; adding a field there requires appending here, in decodeStats,
// and bumping Version.
func (e *Encoder) Stats(token uint64, st serve.Stats) error {
	e.begin(KindStats)
	e.appendU64(token)
	e.appendI64(int64(st.Sessions))
	e.appendI64(int64(st.StreamsOpen))
	e.appendU64(st.SessionsCreated)
	e.appendU64(st.SessionsEvicted)
	e.appendU64(st.Batches)
	e.appendU64(st.BatchesDropped)
	e.appendU64(st.BatchesShed)
	e.appendU64(st.QualityRejected)
	e.appendU64(st.Windows)
	e.appendF64(st.WindowsPerSec)
	e.appendU64(st.Alarms)
	e.appendU64(st.Confirms)
	e.appendU64(st.ConfirmsRejected)
	e.appendU64(st.ConfirmsDropped)
	e.appendU64(st.Retrains)
	e.appendU64(st.RetrainErrors)
	e.appendU64(st.StreamErrors)
	e.appendI64(int64(st.ModelsCached))
	e.appendU64(st.StoreErrors)
	e.appendU64(st.WindowsSuppressed)
	e.appendU64(st.AuditSamples)
	e.appendU64(st.AuditDisagreements)
	e.appendU64(st.PrefilterDrift)
	e.appendU64(st.EventsDropped)
	e.appendI64(int64(st.QueueDepth))
	e.appendI64(int64(st.Uptime))
	return e.frame()
}

// Ping writes a health probe; Pong echoes its token back.
func (e *Encoder) Ping(token uint64) error {
	e.begin(KindPing)
	e.appendU64(token)
	return e.frame()
}

// Pong writes a health probe reply.
func (e *Encoder) Pong(token uint64) error {
	e.begin(KindPong)
	e.appendU64(token)
	return e.frame()
}

// Decoder reads frames from an internal bufio.Reader. Not safe for
// concurrent use; each connection has exactly one read loop.
type Decoder struct {
	r   *bufio.Reader
	buf []byte
}

// NewDecoder returns a decoder framing off r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads and decodes one frame. io.EOF crosses through cleanly on
// a frame boundary; a connection cut mid-frame is io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return Msg{}, ErrFrameTooLarge
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Msg{}, err
	}
	return parse(body)
}

// reader is a bounds-checked cursor over one frame body: the first
// malformed read poisons it, and the caller checks err once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errors.New("wire: truncated frame body")
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || r.off+int(n) > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// bytes returns a length-prefixed byte payload. The copy is deliberate:
// the decoder's frame buffer is reused by the next Next call, while
// model checkpoints outlive it (they are parsed or forwarded later).
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil || r.off+int(n) > len(r.b) {
		r.fail()
		return nil
	}
	b := append([]byte(nil), r.b[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b
}

func (r *reader) floats() []float64 {
	n := r.u32()
	if r.err != nil || r.off+8*int(n) > len(r.b) {
		r.fail()
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return xs
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

func parse(body []byte) (Msg, error) {
	r := &reader{b: body}
	m := Msg{Kind: Kind(r.u8())}
	switch m.Kind {
	case KindHello:
		m.Version = r.u32()
	case KindPush:
		m.Patient = r.str()
		m.C0 = r.floats()
		m.C1 = r.floats()
	case KindPushQ:
		m.Patient = r.str()
		m.C0 = r.qfloats()
		m.C1 = r.qfloats()
	case KindConfirm:
		m.Patient = r.str()
	case KindEvent:
		m.Event.Kind = serve.EventKind(r.u8())
		m.Event.Patient = r.str()
		m.Event.Time = time.Unix(0, r.i64())
		m.Event.Seq = r.u64()
		m.Event.Version = r.u64()
		m.Event.StreamTime = r.f64()
		if msg := r.str(); msg != "" {
			m.Event.Err = errors.New(msg)
		}
	case KindStatsReq, KindPing, KindPong:
		m.Token = r.u64()
	case KindModelGet:
		m.Token = r.u64()
		m.Patient = r.str()
	case KindModelPut:
		m.Token = r.u64()
		m.Patient = r.str()
		m.ModelVersion = r.u64()
		m.Model = r.bytes()
	case KindModelAnnounce:
		m.Patient = r.str()
		m.ModelVersion = r.u64()
	case KindStats:
		m.Token = r.u64()
		m.Stats = decodeStats(r)
	case KindPrefilterDecl:
		m.Patient = r.str()
		m.Prefilter.Gate.Factor = r.f64()
		m.Prefilter.Gate.HistoryWindows = int(r.u32())
		m.Prefilter.AuditEvery = int(r.u32())
		m.Prefilter.DriftThreshold = int(r.u32())
	case KindPushDigest:
		m.Patient = r.str()
		m.Digest.Windows = r.u32()
		m.Digest.SumAmp = r.f64()
		m.Digest.MinAmp = r.f64()
		m.Digest.MaxAmp = r.f64()
	case KindAuditPush:
		m.Patient = r.str()
		m.C0 = r.floats()
		m.C1 = r.floats()
	case KindAuditRequest:
		m.Patient = r.str()
	default:
		return Msg{}, fmt.Errorf("wire: unknown frame kind %d", uint8(m.Kind))
	}
	if r.err != nil {
		return Msg{}, fmt.Errorf("wire: %s frame: %w", m.Kind, r.err)
	}
	if r.off != len(body) {
		return Msg{}, fmt.Errorf("wire: %s frame has %d trailing bytes", m.Kind, len(body)-r.off)
	}
	return m, nil
}

func decodeStats(r *reader) serve.Stats {
	var st serve.Stats
	st.Sessions = int(r.i64())
	st.StreamsOpen = int(r.i64())
	st.SessionsCreated = r.u64()
	st.SessionsEvicted = r.u64()
	st.Batches = r.u64()
	st.BatchesDropped = r.u64()
	st.BatchesShed = r.u64()
	st.QualityRejected = r.u64()
	st.Windows = r.u64()
	st.WindowsPerSec = r.f64()
	st.Alarms = r.u64()
	st.Confirms = r.u64()
	st.ConfirmsRejected = r.u64()
	st.ConfirmsDropped = r.u64()
	st.Retrains = r.u64()
	st.RetrainErrors = r.u64()
	st.StreamErrors = r.u64()
	st.ModelsCached = int(r.i64())
	st.StoreErrors = r.u64()
	st.WindowsSuppressed = r.u64()
	st.AuditSamples = r.u64()
	st.AuditDisagreements = r.u64()
	st.PrefilterDrift = r.u64()
	st.EventsDropped = r.u64()
	st.QueueDepth = int(r.i64())
	st.Uptime = time.Duration(r.i64())
	return st
}
