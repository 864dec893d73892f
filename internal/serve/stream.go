package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrStreamClosed is returned by Push and Confirm on a closed Stream.
var ErrStreamClosed = errors.New("serve: stream closed")

// Stream is a per-patient session handle returned by Server.Open. The
// patient's shard is resolved once at Open — the handle enqueues
// through the Shard seam and never touches a worker directly — and
// the per-batch path is hash-free; the handle also carries per-stream
// counters. A Stream's methods are safe for concurrent use, but batches
// Pushed concurrently race for queue order — a wearable gateway should
// Push each patient's stream from one goroutine.
//
// Multiple handles may be open for the same patient (e.g. a hospital
// gateway and a home gateway across a transfer); they share the
// server-side session, and each handle's stats count only its own traffic.
type Stream struct {
	srv     *Server
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
	// but later discarded by a ShedOldest admission elsewhere on the shard.
	Batches        uint64
	BatchesDropped uint64
	BatchesShed    uint64
	// QualityRejected counts accepted batches the server's quality
	// gate refused before feature extraction.
	QualityRejected uint64
	// Confirms counts accepted confirmations.
	Confirms uint64
	// Windows and Alarms count feature windows classified and alarms
	// raised from this handle's batches.
	Windows uint64
	Alarms  uint64
}

// Open returns a handle for streaming patientID's samples. The shard is
// resolved here, once; Push and Confirm are then queue operations only.
// Open never creates the server-side session — that happens lazily on
// the first batch — so an Open/Close pair with no traffic costs nothing
// on the workers.
func (s *Server) Open(patientID string) (*Stream, error) {
	if patientID == "" {
		return nil, errors.New("serve: empty patient ID")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.streamsOpen.Add(1)
	return &Stream{srv: s, patient: patientID, shard: s.transport.shard(patientID)}, nil
}

// Patient returns the stream's patient ID.
func (st *Stream) Patient() string { return st.patient }

// NoteShed, NoteWindows and NoteAlarms implement StreamObserver: the
// shard side of the transport attributes outcomes back to this handle.
func (st *Stream) NoteShed() { st.shed.Add(1) }

// NoteWindows implements StreamObserver.
func (st *Stream) NoteWindows(n int) { st.windows.Add(uint64(n)) }

// NoteRejected implements StreamObserver.
func (st *Stream) NoteRejected() { st.rejected.Add(1) }

// NoteAlarms implements StreamObserver.
func (st *Stream) NoteAlarms(n int) { st.alarms.Add(uint64(n)) }

// Push enqueues one batch of synchronized two-channel samples. It
// returns ErrBackpressure when the stream's admission policy gives up
// on a full shard queue (the caller owns the retry), and ErrClosed /
// ErrStreamClosed after the server or this handle closed. The server
// takes ownership of the slices.
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
	if st.srv.closedFast.Load() {
		return ErrClosed
	}
	if st.shard.Congested(st.srv.admission) {
		st.srv.batchesDropped.Add(1)
		st.dropped.Add(1)
		return ErrBackpressure
	}
	err := st.srv.enqueue(st.shard, Job{Patient: st.patient, Stream: st, C0: c0, C1: c1})
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
	return st.srv.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Declare: &c})
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
	if st.srv.closedFast.Load() {
		return ErrClosed
	}
	dd := d
	err := st.srv.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Digest: &dd})
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
	if st.srv.closedFast.Load() {
		return ErrClosed
	}
	err := st.srv.enqueue(st.shard, Job{Patient: st.patient, Stream: st, C0: c0, C1: c1, Audit: true})
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
	err := st.srv.enqueue(st.shard, Job{Patient: st.patient, Stream: st, Confirm: true})
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
		st.srv.streamsOpen.Add(-1)
	}
}
