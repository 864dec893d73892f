package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrStreamClosed is returned by every verb of a closed Stream.
var ErrStreamClosed = errors.New("serve: stream closed")

// Intake is the client side both transports share: it opens Stream
// handles, runs their jobs through one admission policy under the close
// handshake, and counts handles, batches and confirmations. Server
// opens its handles on in-process workers; internal/cluster's Router
// opens them on per-stream routes to shardd processes. Only the Shard
// differs.
type Intake struct {
	admission AdmissionPolicy

	mu     sync.RWMutex // guards closed against in-flight Open/enqueue
	closed bool
	// closedFast mirrors closed for lock-free reads on the Push fast
	// paths (set by Close before the owner drains its queues); the
	// mutex remains the authority for the close handshake.
	closedFast atomic.Bool

	streamsOpen      atomic.Int64
	batches          atomic.Uint64
	batchesDropped   atomic.Uint64
	confirms         atomic.Uint64
	confirmsRejected atomic.Uint64
}

// NewIntake returns an open intake whose handles admit jobs under p;
// nil means DropOnFull.
func NewIntake(p AdmissionPolicy) *Intake {
	if p == nil {
		p = DropOnFull()
	}
	return &Intake{admission: p}
}

// Open returns a handle for streaming patientID's samples to sh. The
// shard is resolved by the caller, once; Push and Confirm are then
// queue operations only.
func (in *Intake) Open(patientID string, sh Shard) (*Stream, error) {
	if patientID == "" {
		return nil, errors.New("serve: empty patient ID")
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return nil, ErrClosed
	}
	in.streamsOpen.Add(1)
	return &Stream{in: in, patient: patientID, shard: sh}, nil
}

// Close refuses every later Open and enqueue with ErrClosed. It takes
// the write lock, so once it returns no enqueue is in flight and the
// owner may close its shard queues. It reports true only for the call
// that closed the intake.
func (in *Intake) Close() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false
	}
	in.closed = true
	in.closedFast.Store(true)
	return true
}

// Counts returns the intake's counters in StreamsOpen, Batches,
// BatchesDropped, Confirms and ConfirmsRejected; every other field is
// zero.
func (in *Intake) Counts() Stats {
	return Stats{
		StreamsOpen:      int(in.streamsOpen.Load()),
		Batches:          in.batches.Load(),
		BatchesDropped:   in.batchesDropped.Load(),
		Confirms:         in.confirms.Load(),
		ConfirmsRejected: in.confirmsRejected.Load(),
	}
}

// enqueue runs one job through the admission policy against the
// stream's shard, maintaining the intake's accept/reject counters.
// The read lock is the close handshake: Close takes the write lock, so
// no admit is in flight when the owner closes its shard queues.
func (in *Intake) enqueue(sh Shard, j Job) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return ErrClosed
	}
	err := sh.Enqueue(in.admission, j) //selflearn:locked-ok the read lock is the close handshake documented above
	switch {
	case err == nil && j.Confirm:
		in.confirms.Add(1)
	case err == nil:
		in.batches.Add(1)
	case j.Confirm:
		in.confirmsRejected.Add(1)
	default:
		in.batchesDropped.Add(1)
	}
	return err
}

// Stream is a per-patient session handle returned by Server.Open and
// cluster.Router.Open. The patient's shard is resolved once at Open —
// the handle enqueues through the Shard seam and never touches a
// worker or a connection directly — and the per-batch path is
// hash-free; the handle also carries per-stream counters. A Stream's
// methods are safe for concurrent use, but batches Pushed concurrently
// race for queue order — a wearable gateway should Push each patient's
// stream from one goroutine.
//
// Multiple handles may be open for the same patient (e.g. a hospital
// gateway and a home gateway across a transfer); they share the
// server-side session, and each handle's stats count only its own traffic.
type Stream struct {
	in      *Intake
	patient string
	shard   Shard
	closed  atomic.Bool

	batches  atomic.Uint64
	dropped  atomic.Uint64
	shed     atomic.Uint64
	rejected atomic.Uint64
	confirms atomic.Uint64
	windows  atomic.Uint64
	alarms   atomic.Uint64
}

// StreamStats is a point-in-time snapshot of one handle's counters.
type StreamStats struct {
	// Patient is the stream's patient ID.
	Patient string
	// Batches counts accepted Pushes; BatchesDropped counts Pushes
	// rejected with ErrBackpressure; BatchesShed counts batches accepted
	// but later discarded by a ShedOldest admission elsewhere on the
	// shard, or lost in transit by a cluster connection that died.
	Batches        uint64
	BatchesDropped uint64
	BatchesShed    uint64
	// QualityRejected counts accepted batches the server's quality
	// gate refused before feature extraction.
	QualityRejected uint64
	// Confirms counts accepted confirmations.
	Confirms uint64
	// Windows and Alarms count feature windows classified and alarms
	// raised from this handle's batches. QualityRejected, Windows and
	// Alarms advance only on in-process handles; a cluster handle's
	// batches are served remotely and report through events and
	// Router.Snapshot instead.
	Windows uint64
	Alarms  uint64
}

// Open returns a handle for streaming patientID's samples. The shard is
// resolved here, once; Push and Confirm are then queue operations only.
// Open never creates the server-side session — that happens lazily on
// the first batch — so an Open/Close pair with no traffic costs nothing
// on the workers.
func (s *Server) Open(patientID string) (*Stream, error) {
	return s.in.Open(patientID, s.transport.shard(patientID))
}

// NoteShed records one of the stream's accepted batches discarded on
// the shard side of a transport: shed by ShedOldest admission, or lost
// in transit by a cluster connection that died.
func (st *Stream) NoteShed() { st.shed.Add(1) }

// Push enqueues one batch of synchronized two-channel samples. It
// returns ErrBackpressure when the stream's admission policy gives up
// on a full shard queue (the caller owns the retry), ErrClosed /
// ErrStreamClosed after the intake's owner or this handle closed, and
// any other error the shard returns — a cluster route's outage errors,
// which the caller retries like backpressure. The transport takes
// ownership of the slices.
func (st *Stream) Push(c0, c1 []float64) error {
	if st.closed.Load() {
		return ErrStreamClosed
	}
	if len(c0) != len(c1) {
		return fmt.Errorf("serve: channel length mismatch %d vs %d", len(c0), len(c1))
	}
	if len(c0) == 0 {
		return nil
	}
	// Cheap overload path: policies that would certainly refuse a full
	// queue get to say so before the lock is taken and the job built.
	// The closed check comes first so a closed server keeps returning
	// ErrClosed (not ErrBackpressure) while its shard queues drain.
	if st.in.closedFast.Load() {
		return ErrClosed
	}
	if st.shard.Congested(st.in.admission) {
		st.in.batchesDropped.Add(1)
		st.dropped.Add(1)
		return ErrBackpressure
	}
	err := st.in.enqueue(st.shard, Job{Patient: st.patient, Stream: st, C0: c0, C1: c1})
	switch err {
	case nil:
		st.batches.Add(1)
	case ErrBackpressure:
		st.dropped.Add(1)
	}
	return err
}

// DeclarePrefilter announces the stream's client-side stage-1
// prefilter to the shard, arming the shard-side audit (mirror gate,
// digest checks, stage-2 replay of audit samples). Call it once after
// Open, before the first Push; a re-declaration resets the audit state.
func (st *Stream) DeclarePrefilter(cfg PrefilterConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if st.closed.Load() {
		return ErrStreamClosed
	}
	c := cfg
	return st.in.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Declare: &c})
}

// PushDigest reports a span of suppressed windows (a
// PrefilterClient.Decide Flush) to the shard's audit. Empty digests are
// accepted and ignored so callers can forward Flush unconditionally.
func (st *Stream) PushDigest(d Digest) error {
	if d.Windows == 0 {
		return nil
	}
	if st.closed.Load() {
		return ErrStreamClosed
	}
	if st.in.closedFast.Load() {
		return ErrClosed
	}
	dd := d
	err := st.in.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Digest: &dd})
	if err == nil {
		st.batches.Add(1)
	}
	return err
}

// PushAudit ships one suppressed window's full samples for shard-side
// stage-2 audit replay. The batch does not enter the patient's feature
// stream — the window stays suppressed; the shard only checks whether
// stage 2 agrees it was safe to drop. The server takes ownership of the
// slices.
func (st *Stream) PushAudit(c0, c1 []float64) error {
	if st.closed.Load() {
		return ErrStreamClosed
	}
	if len(c0) != len(c1) {
		return fmt.Errorf("serve: channel length mismatch %d vs %d", len(c0), len(c1))
	}
	if len(c0) == 0 {
		return nil
	}
	if st.in.closedFast.Load() {
		return ErrClosed
	}
	err := st.in.enqueue(st.shard, Job{Patient: st.patient, Stream: st, C0: c0, C1: c1, Audit: true})
	if err == nil {
		st.batches.Add(1)
	}
	return err
}

// Confirm reports the patient's seizure confirmation (the paper's
// button press): the session's buffered feature history is scheduled
// for a-posteriori labeling and detector retraining in the background.
func (st *Stream) Confirm() error {
	if st.closed.Load() {
		return ErrStreamClosed
	}
	err := st.in.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Confirm: true})
	if err == nil {
		st.confirms.Add(1)
	}
	return err
}

// Stats snapshots this handle's counters. Windows and Alarms lag Push
// by queue latency: they advance when the shard worker processes the
// batch, not when Push accepts it.
func (st *Stream) Stats() StreamStats {
	return StreamStats{
		Patient:         st.patient,
		Batches:         st.batches.Load(),
		BatchesDropped:  st.dropped.Load(),
		BatchesShed:     st.shed.Load(),
		QualityRejected: st.rejected.Load(),
		Confirms:        st.confirms.Load(),
		Windows:         st.windows.Load(),
		Alarms:          st.alarms.Load(),
	}
}

// Close invalidates the handle: subsequent Push and Confirm return
// ErrStreamClosed. The server-side session, its model, and any queued
// batches are unaffected — a patient who reconnects Opens a new handle
// and resumes warm. Close is idempotent.
func (st *Stream) Close() {
	if !st.closed.Swap(true) {
		st.in.streamsOpen.Add(-1)
	}
}
