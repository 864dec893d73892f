package serve

import (
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
)

// localTransport is the in-process ShardTransport: the goroutine worker
// pool the server was born with, now behind the same seam a cluster of
// shardd processes plugs into. Patients map to workers by FNV-1a hash;
// a patient's jobs always land on the same worker, which preserves
// per-stream ordering without locks. The per-batch path stays
// allocation-free: a Job is a value on a channel, and per-stream
// attribution rides a pre-existing pointer in its Stream field.
type localTransport struct {
	workers []*worker
}

// newLocalTransport builds every worker, each with its own feature
// workspace, before starting any of them, so a workspace that cannot be
// built fails New without leaving goroutines behind.
func newLocalTransport(s *Server, historyRows int) (*localTransport, error) {
	t := &localTransport{workers: make([]*worker, s.cfg.Workers)}
	for i := range t.workers {
		ws, err := features.NewWorkspace(s.cfg.SampleRate, s.cfg.FeatureCfg)
		if err != nil {
			return nil, err
		}
		t.workers[i] = newWorker(s, i, ws)
	}
	for _, w := range t.workers {
		go w.run(historyRows)
	}
	return t, nil
}

// Shard implements ShardTransport; local resolution cannot fail.
func (t *localTransport) Shard(patientID string) (Shard, error) {
	return t.workers[shardHash(patientID)%uint32(len(t.workers))], nil
}

// Depth implements ShardTransport.
func (t *localTransport) Depth() int {
	depth := 0
	for _, w := range t.workers {
		depth += w.queue.Depth()
	}
	return depth
}

// Close implements ShardTransport: closes every worker queue and waits
// for the drains. The caller (Server.Close) guarantees no Enqueue is in
// flight.
func (t *localTransport) Close() {
	for _, w := range t.workers {
		w.queue.Close()
	}
	for _, w := range t.workers {
		<-w.done
	}
}

// worker owns a shard of patients: their sessions, the LRU session
// table, the goroutine that processes their jobs strictly in arrival
// order, and the one feature workspace every session (and prefilter
// audit) of the shard extracts on, so each window's FFT, DWT and entropy
// scratch stays warm in this goroutine's cache. It implements Shard by
// delegating to its queue.
type worker struct {
	srv      *Server
	index    int
	queue    *Queue
	done     chan struct{}
	sessions *lru[*session]
	ws       *features.Workspace
}

// newWorker builds a worker on workspace ws; the caller starts run.
func newWorker(s *Server, index int, ws *features.Workspace) *worker {
	w := &worker{
		srv:   s,
		index: index,
		done:  make(chan struct{}),
		ws:    ws,
	}
	w.queue = NewQueue(s.cfg.QueueDepth, QueueHooks{
		Shed: func(j Job) {
			s.batchesShed.Add(1)
			s.hub.emit(Event{Kind: EventShed, Patient: j.Patient})
		},
		ConfirmLost: func(Job) { s.confirmsDropped.Add(1) },
	})
	w.sessions = newLRU[*session](s.cfg.MaxSessions, func(id string, sess *session) {
		// The session's streaming state dies with it, but the trained
		// model is already in the model cache/store (the learner
		// publishes there), so a returning patient resumes detection warm.
		s.sessions.Add(-1)
		s.sessionsEvicted.Add(1)
		s.hub.emit(Event{Kind: EventEviction, Patient: id})
	})
	return w
}

// Enqueue implements Shard.
func (w *worker) Enqueue(p AdmissionPolicy, j Job) error { return w.queue.Offer(p, j) }

// Congested implements Shard.
func (w *worker) Congested(p AdmissionPolicy) bool { return w.queue.FastReject(p) }

// Depth implements Shard.
func (w *worker) Depth() int { return w.queue.Depth() }

// drainJob is one admitted batch job's place in a coalesced drain: its
// session, its row span [lo, hi) in the shared row arena, and the model
// pointer captured at admission time (so a learner publish landing
// mid-drain cannot split one job's rows across two models).
type drainJob struct {
	j      Job
	sess   *session
	lo, hi int32
	model  *forest.FlatForest
	scored bool
}

// drain owns the reusable arenas of the coalescing loop: the admitted
// jobs, every job's completed feature rows (stable history-ring views),
// the prediction arena aligned with the rows, and the per-model-group
// gather/scatter scratch. All slices grow once and are reused, keeping
// the steady-state drain allocation-free.
type drain struct {
	jobs  []drainJob
	rows  [][]float64
	preds []bool
	gmap  []int32     // model group: arena row indices
	grows [][]float64 // model group: gathered rows (float fallback)
	gpred []bool      // model group: contiguous predictions
	codes []int16     // model group: quantized row codes
}

func (d *drain) reset() {
	d.jobs = d.jobs[:0]
	d.rows = d.rows[:0]
}

// run is the worker loop: one blocking receive per wakeup, then a
// non-blocking drain of up to Coalesce-1 more ready jobs, processed as
// one cross-patient batch in three phases — admit (prefilter, session,
// ingest, model reconcile; strictly in arrival order), score (one
// tree-major walk per distinct model across every patient's rows), and
// settle (alarms, stats, events; again in arrival order). Per-patient
// semantics are exactly the one-job-at-a-time loop's: a patient's jobs
// all land on this worker, rows enter the alarm layer in arrival
// order, and two row-bearing jobs of the same patient never share a
// drain (the second would overwrite the first's history-ring views),
// enforced by the conflict check below.
func (w *worker) run(historyRows int) {
	defer close(w.done)
	maxDrain := w.srv.cfg.Coalesce
	if maxDrain < 1 {
		maxDrain = 1
	}
	d := &drain{}
	for {
		j, ok := <-w.queue.C()
		if !ok {
			return
		}
		for pending := true; pending; {
			pending = false
			d.reset()
			w.admit(d, j, historyRows)
			for len(d.jobs) < maxDrain {
				nj, ok := w.queue.TryRecv()
				if !ok {
					break
				}
				if !nj.Confirm && w.conflicts(d, nj.Patient) {
					// Same patient already contributed rows: flush what we
					// have and start the next drain with this job, keeping
					// its ring views and alarm ordering intact.
					j, pending = nj, true
					break
				}
				w.admit(d, nj, historyRows)
			}
			w.score(d)
			w.settle(d)
		}
	}
}

// conflicts reports whether a row-bearing job for patient is already in
// the drain. Confirm jobs never conflict: they snapshot the ring, they
// do not advance it.
func (w *worker) conflicts(d *drain, patient string) bool {
	for i := range d.jobs {
		if !d.jobs[i].j.Confirm && d.jobs[i].j.Patient == patient {
			return true
		}
	}
	return false
}

// admit runs one job's arrival-order phase: quality admission, session
// resolution, confirm dispatch or ingest, and the model-cache
// reconcile. Completed rows are appended to the drain's shared arena.
// Prefilter jobs (declare, digest, audit sample) are handled entirely
// here — they carry no feature rows.
func (w *worker) admit(d *drain, j Job, historyRows int) {
	if j.Declare != nil || j.Digest != nil || j.Audit {
		w.admitPrefilter(j, historyRows)
		return
	}
	// Quality-aware admission: a garbage batch is refused here,
	// before any session state or classifier time is spent on it.
	// The samples never reach the feature streamer — the window
	// stream skips the unusable second.
	if !j.Confirm && w.srv.quality != nil &&
		!qualityOK(w.srv.quality, j.C0, j.C1, w.srv.cfg.SampleRate) {
		w.srv.qualityRejected.Add(1)
		if j.Stream != nil {
			j.Stream.NoteRejected()
		}
		w.srv.hub.emit(Event{Kind: EventQualityReject, Patient: j.Patient})
		return
	}
	sess, err := w.session(j.Patient, historyRows)
	if err != nil {
		// The pipeline was pre-flighted in New, so a constructor
		// failure here should be unreachable; count it rather than
		// crash the shard, and surface it via Stats.StreamErrors.
		w.srv.streamErrors.Add(1)
		return
	}
	if j.Confirm {
		// Snapshot at the job's arrival position: earlier ingests in this
		// drain have already advanced the ring, later ones have not.
		w.confirm(sess)
		return
	}
	if sess.audit != nil {
		// A declared prefilter's mirror gate consumes shipped
		// amplitudes in stream order, keeping its cold-start baseline
		// in lockstep with the client's.
		sess.audit.observeShipped(j.C0, j.C1)
	}
	rows, err := sess.ingest(j.C0, j.C1)
	if err != nil {
		w.srv.streamErrors.Add(1)
	}
	if len(rows) == 0 {
		return
	}
	// Reconcile with the model cache: the learner publishes
	// there first, and a session recreated after LRU eviction
	// would otherwise miss a retrain that completed in flight.
	// LRU-only lookup — the store must stay off the batch path.
	if f := w.srv.cache.cached(j.Patient); f != nil && f != sess.model.Load() {
		sess.model.Store(f)
	}
	lo := int32(len(d.rows))
	// Copy the row views out of the session's reusable scratch; the
	// views themselves are stable ring slots, valid for the whole drain.
	d.rows = append(d.rows, rows...)
	d.jobs = append(d.jobs, drainJob{
		j: j, sess: sess, lo: lo, hi: int32(len(d.rows)), model: sess.model.Load(),
	})
}

// score classifies every admitted row, grouping jobs by model pointer
// so each distinct forest makes exactly one tree-major pass over all of
// its patients' rows. Quantized models score the whole group from one
// contiguous int16 code arena — the cross-patient generalization of the
// 4-row lock-step walk; un-quantized models gather their group and take
// the float batch path; untrained sessions are all-negative.
//
//selflearn:hotpath
func (w *worker) score(d *drain) {
	if len(d.rows) == 0 {
		return
	}
	if cap(d.preds) < len(d.rows) {
		d.preds = make([]bool, len(d.rows))
	}
	d.preds = d.preds[:len(d.rows)]
	for i := range d.jobs {
		ji := &d.jobs[i]
		if ji.scored || ji.lo == ji.hi {
			continue
		}
		m := ji.model
		if m == nil {
			for k := i; k < len(d.jobs); k++ {
				jk := &d.jobs[k]
				if jk.model == nil {
					for r := jk.lo; r < jk.hi; r++ {
						d.preds[r] = false
					}
					jk.scored = true
				}
			}
			continue
		}
		d.gmap = d.gmap[:0]
		for k := i; k < len(d.jobs); k++ {
			jk := &d.jobs[k]
			if jk.model == m {
				for r := jk.lo; r < jk.hi; r++ {
					d.gmap = append(d.gmap, r)
				}
				jk.scored = true
			}
		}
		n := len(d.gmap)
		if cap(d.gpred) < n {
			d.gpred = make([]bool, n)
		}
		if qf := m.Quant(); qf != nil {
			nf := qf.NumFeatures()
			if cap(d.codes) < n*nf {
				d.codes = make([]int16, n*nf)
			}
			codes := d.codes[:n*nf]
			for gi, r := range d.gmap {
				qf.QuantizeRowInto(codes[gi*nf:(gi+1)*nf], d.rows[r])
			}
			qf.PredictBatchInto(d.gpred[:n], codes, n)
		} else {
			if cap(d.grows) < n {
				d.grows = make([][]float64, n)
			}
			grows := d.grows[:n]
			for gi, r := range d.gmap {
				grows[gi] = d.rows[r]
			}
			m.PredictBatchInto(d.gpred[:n], grows)
		}
		for gi, r := range d.gmap {
			d.preds[r] = d.gpred[gi]
		}
	}
}

// settle feeds each job's predictions through its session's alarm
// layer and attributes stats and events, in arrival order.
func (w *worker) settle(d *drain) {
	for i := range d.jobs {
		ji := &d.jobs[i]
		if ji.lo == ji.hi {
			continue
		}
		nRows := int(ji.hi - ji.lo)
		fired := ji.sess.pushAlarms(d.preds[ji.lo:ji.hi])
		w.srv.windows.Add(uint64(nRows))
		if ji.j.Stream != nil {
			ji.j.Stream.NoteWindows(nRows)
		}
		if len(fired) > 0 {
			w.srv.alarms.Add(uint64(len(fired)))
			if ji.j.Stream != nil {
				ji.j.Stream.NoteAlarms(len(fired))
			}
			for _, at := range fired {
				w.srv.hub.emit(Event{Kind: EventAlarm, Patient: ji.j.Patient, StreamTime: at})
			}
		}
	}
}

// admitPrefilter processes the prefilter job kinds against the
// patient's session-attached audit state: a Declare (re)builds the
// mirror, a Digest is checked against the declared gate and counted,
// and an Audit sample replays through stage 2 with the session's
// current model. Disagreements crossing the declared threshold emit
// EventPrefilterDrift; unaudited suppression on a no-proactive-sampling
// stream emits EventAuditRequest.
func (w *worker) admitPrefilter(j Job, historyRows int) {
	sess, err := w.session(j.Patient, historyRows)
	if err != nil {
		w.srv.streamErrors.Add(1)
		return
	}
	if j.Declare != nil {
		audit, err := newPrefilterAudit(*j.Declare, w.ws)
		if err != nil {
			// Stream.DeclarePrefilter validates before enqueueing, so
			// this should be unreachable; surface it rather than crash.
			w.srv.streamErrors.Add(1)
			return
		}
		sess.audit = audit
		return
	}
	if sess.audit == nil {
		// Digest or audit traffic without a declaration — a client bug
		// or a declaration lost to shedding. Count the suppression (the
		// uplink saving is real) but nothing can be audited.
		if j.Digest != nil {
			w.srv.windowsSuppressed.Add(uint64(j.Digest.Windows))
		}
		return
	}
	if j.Digest != nil {
		w.srv.windowsSuppressed.Add(uint64(j.Digest.Windows))
		disagreed, requestAudit := sess.audit.observeDigest(*j.Digest)
		w.noteAuditOutcome(sess, j.Patient, disagreed)
		if requestAudit {
			w.srv.hub.emit(Event{Kind: EventAuditRequest, Patient: j.Patient})
		}
		return
	}
	// Audit sample: reconcile the model first so the replay scores with
	// the freshest forest, exactly like the ingest path.
	if f := w.srv.cache.cached(j.Patient); f != nil && f != sess.model.Load() {
		sess.model.Store(f)
	}
	w.srv.auditSamples.Add(1)
	disagreed := sess.audit.observeSample(j.C0, j.C1, sess.model.Load())
	w.noteAuditOutcome(sess, j.Patient, disagreed)
}

// noteAuditOutcome folds audit disagreements into the server counters
// and emits the once-per-declaration drift event when the stream's
// threshold is crossed.
func (w *worker) noteAuditOutcome(sess *session, patient string, disagreed uint64) {
	if disagreed == 0 {
		return
	}
	w.srv.auditDisagreements.Add(disagreed)
	if sess.audit.noteDisagreements(disagreed) {
		w.srv.prefilterDrift.Add(1)
		w.srv.hub.emit(Event{Kind: EventPrefilterDrift, Patient: patient})
	}
}

// session returns the patient's live session, creating (and warm
// starting from the model cache or its backing store) or LRU-touching
// as needed.
func (w *worker) session(patientID string, historyRows int) (*session, error) {
	if sess, ok := w.sessions.Get(patientID); ok {
		return sess, nil
	}
	sess, err := newSession(patientID, historyRows, w.srv.cfg, w.ws)
	if err != nil {
		return nil, err
	}
	// Full read-through Get: a first session after process restart warm
	// starts from a FileStore checkpoint here, before its first window
	// is ever classified.
	if f := w.srv.cache.Get(patientID); f != nil {
		sess.model.Store(f)
	}
	w.sessions.Put(patientID, sess)
	w.srv.sessions.Add(1)
	w.srv.sessionsCreated.Add(1)
	return sess, nil
}

// confirm snapshots the session's feature history and hands it to the
// background learner pool; the real-time path never blocks on training.
func (w *worker) confirm(sess *session) {
	rows := sess.historySnapshot()
	sess.retrainSeq++
	if !w.srv.learner.schedule(retrainJob{sess: sess, rows: rows, seq: sess.retrainSeq}) {
		w.srv.confirmsDropped.Add(1)
	}
}
