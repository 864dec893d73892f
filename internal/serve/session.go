package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
)

// session is the server-side state of one patient's streaming loop,
// and only the per-patient part of it: the streamer's two sample rings,
// the hot-swappable window classifier, the alarm layer, and the rolling
// feature history the a-posteriori labeler consumes when the patient
// confirms a seizure. Feature extraction scratch is the owning worker's
// features.Workspace, which all of its sessions borrow. All fields
// except model are confined to the owning worker goroutine; model is an
// atomic pointer because the background learner installs retrained
// forests into live sessions.
//
// The steady-state batch path (ingest → classify) allocates nothing:
// the workspace reuses its emission buffer, emitted rows are copied
// into the preallocated history ring, and classification runs the flat
// forest into a reused prediction buffer.
type session struct {
	id       string
	streamer *features.Streamer
	alarm    *rt.Detector
	model    atomic.Pointer[forest.FlatForest]

	// hist is a ring of the most recent feature rows (one per hop, i.e.
	// one per second in the paper's configuration), the streaming
	// equivalent of the wearable's "buffered last hour": slot i is
	// hist[i*nf:(i+1)*nf]. Rows are copied in on emission, so the ring
	// owns its data and the workspace's emission buffer can be reused.
	hist     []float64
	nf       int // feature row width, one slot
	histRows int // slots in the ring
	histPos  int // next slot to write
	histLen  int // slots filled so far (caps at histRows)

	// rowsScratch collects the slot views of the rows a batch completed;
	// predScratch is the matching classification buffer; alarmScratch
	// collects the stream times of alarms a batch fired. All are reused
	// across batches.
	rowsScratch  [][]float64
	predScratch  []bool
	alarmScratch []float64
	codeScratch  []int16 // quantized row codes arena (quant classify path)

	// audit is the shard half of a declared client-side prefilter
	// (nil until a Declare job arrives). Worker-confined like the
	// session's streaming state.
	audit *prefilterAudit

	// retrainSeq counts confirmations dispatched to the learner; it
	// seeds forest training so retrains stay deterministic per patient.
	retrainSeq int64

	// installMu makes the learner's gate-and-publish atomic per session;
	// installedSeq (written only under installMu) is the highest
	// retrainSeq whose model has been installed. Together they keep a
	// slow older retrain from overwriting a newer one when the learner
	// pool completes jobs out of order.
	installMu    sync.Mutex
	installedSeq atomic.Int64
}

// nopClassifier satisfies rt.Classifier for detector construction; the
// worker always feeds precomputed batch predictions through
// PushPrediction, so it is never consulted.
type nopClassifier struct{}

func (nopClassifier) Predict([]float64) bool { return false }

// newSession builds a patient's session on ws, the feature workspace
// of the worker that owns it.
func newSession(id string, historyRows int, cfg Config, ws *features.Workspace) (*session, error) {
	if historyRows < 1 {
		// Server.New validates this from Config.History; guard here too
		// because remember() indexes the ring unconditionally.
		return nil, fmt.Errorf("serve: session needs at least one history row, got %d", historyRows)
	}
	det, err := rt.NewDetector(nopClassifier{}, cfg.AlarmCfg)
	if err != nil {
		return nil, err
	}
	st := ws.NewStreamer()
	nf := st.NumFeatures()
	return &session{
		id:       id,
		streamer: st,
		alarm:    det,
		hist:     make([]float64, historyRows*nf),
		nf:       nf,
		histRows: historyRows,
	}, nil
}

// ingest pushes one batch of synchronized samples through the feature
// extractor and returns the feature rows completed by this batch, as
// their stable history-ring views. The returned slice is the session's
// reusable scratch: it is valid until the next ingest call.
//
//selflearn:hotpath
func (s *session) ingest(c0, c1 []float64) ([][]float64, error) {
	rows := s.rowsScratch[:0]
	for i := range c0 {
		row, ready, err := s.streamer.Push(c0[i], c1[i])
		if err != nil {
			s.rowsScratch = rows
			return rows, err
		}
		if ready {
			// Copy immediately: the workspace reuses its emission buffer,
			// so the row must land in its ring slot before any session of
			// this worker pushes again.
			if len(row) != s.nf {
				// Slot width is derived from the streamer at construction;
				// a mismatch means the extractor changed shape mid-stream —
				// fail loudly rather than silently truncate the history
				// the learner trains on.
				s.rowsScratch = rows
				return rows, fmt.Errorf("serve: feature row width %d does not match history slot width %d",
					len(row), s.nf)
			}
			if n := s.histRows; len(rows) >= n {
				// A batch longer than the whole history ring: remember is
				// about to recycle the slot handed out n rows ago, so give
				// that row its own copy first. Pathological (one Push
				// spanning more than the History duration) — the common
				// path stays allocation-free.
				k := len(rows) - n
				rows[k] = append([]float64(nil), rows[k]...) //selflearn:alloc-ok pathological ring-wrap copy, documented above
			}
			rows = append(rows, s.remember(row))
		}
	}
	s.rowsScratch = rows
	return rows, nil
}

// slot returns ring slot i as a capacity-capped view, so an append to a
// handed-out row can never spill into the next slot.
func (s *session) slot(i int) []float64 {
	return s.hist[i*s.nf : (i+1)*s.nf : (i+1)*s.nf]
}

// remember copies one feature row into the rolling history ring and
// returns the slot view, which stays valid until the ring wraps past it
// (History duration later — far beyond the enclosing batch).
func (s *session) remember(row []float64) []float64 {
	slot := s.slot(s.histPos)
	copy(slot, row)
	if s.histPos++; s.histPos == s.histRows {
		s.histPos = 0
	}
	if s.histLen < s.histRows {
		s.histLen++
	}
	return slot
}

// historySnapshot linearizes the history ring oldest-first into freshly
// allocated rows. The copy is deliberate: the snapshot crosses to the
// learner goroutine while the worker keeps overwriting ring slots.
func (s *session) historySnapshot() [][]float64 {
	out := make([][]float64, 0, s.histLen)
	start := s.histPos - s.histLen + s.histRows
	for i := 0; i < s.histLen; i++ {
		out = append(out, append([]float64(nil), s.slot((start+i)%s.histRows)...))
	}
	return out
}

// classify scores the batch's feature rows with the current model (all
// negative while untrained) and feeds them through the alarm layer,
// returning the stream times of the alarms that fired. The returned
// slice is the session's reusable scratch, valid until the next
// classify call; the common (alarm-free) path stays allocation-free.
//
//selflearn:hotpath
func (s *session) classify(rows [][]float64) []float64 {
	if len(rows) == 0 {
		fired := s.alarmScratch[:0]
		s.alarmScratch = fired
		return fired
	}
	if cap(s.predScratch) < len(rows) {
		s.predScratch = make([]bool, len(rows))
	}
	preds := s.predScratch[:len(rows)]
	s.predictInto(preds, rows)
	return s.pushAlarms(preds)
}

// predictInto scores rows with the current model into preds (all
// negative while untrained), preferring the int16-quantized walk when
// the model carries one. The two halves of classify are split so the
// coalescing drain (dispatch.go) can score many sessions' rows in one
// arena pass and still feed each session's alarm layer separately.
//
//selflearn:hotpath
func (s *session) predictInto(preds []bool, rows [][]float64) {
	f := s.model.Load()
	if f == nil {
		for i := range preds {
			preds[i] = false
		}
		return
	}
	if qf := f.Quant(); qf != nil {
		// Quantize once per row into the reusable arena, then walk the
		// half-width int16 node tables. Decisions are exactly the float
		// forest's (rank codes are order-exact; the learner verified
		// parity before publishing).
		nf := qf.NumFeatures()
		if cap(s.codeScratch) < len(rows)*nf {
			s.codeScratch = make([]int16, len(rows)*nf)
		}
		codes := s.codeScratch[:len(rows)*nf]
		for i, row := range rows {
			qf.QuantizeRowInto(codes[i*nf:(i+1)*nf], row)
		}
		qf.PredictBatchInto(preds, codes, len(rows))
	} else {
		f.PredictBatchInto(preds, rows)
	}
}

// pushAlarms feeds a batch of window predictions through the alarm
// layer in stream order, returning the stream times of the alarms that
// fired. The returned slice is the session's reusable scratch, valid
// until the next call; the common (alarm-free) path stays
// allocation-free.
//
//selflearn:hotpath
func (s *session) pushAlarms(preds []bool) []float64 {
	fired := s.alarmScratch[:0]
	for _, p := range preds {
		if s.alarm.PushPrediction(p) {
			fired = append(fired, s.alarm.LastAlarmTime())
		}
	}
	s.alarmScratch = fired
	return fired
}
