package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"selflearn/internal/core"
	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/wavelet"
	"selflearn/internal/dsp/window"
	"selflearn/internal/entropy"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// layer accumulates one layer's replayed calls.
type layer struct {
	ns    int64 // time inside the layer's spans
	n     int64 // units those spans covered
	timed int64 // of those, units the system handled in its timed phase
}

// replayer is the reference executor: one goroutine calling the
// program's public functions in stream order, with no queues. Every run
// uses it for the alarms and counters the system must reproduce; in a
// traced run it also times each call into a layer.
type replayer struct {
	r      *runState
	tr     *tracer // nil: correctness only
	layers [numSpans]layer

	quant                      int64 // windows scored by a QuantForest
	suppressed, samples        uint64
	decisions, shipped, audits int64 // edge gate verdicts in the timed phase
	frames, pushFrames, pushQ  int64
	frameBytes                 int64
	retrains, retrainsSame     int // retrain replays; of those, checkpoints identical to the server's

	secs  []int32
	codes []int16
	pred  [1]bool
	row   [1][]float64

	// The probe re-runs each window through the feature layer's children
	// on workspaces of its own, for per-child timing.
	spec       *spectrum.Workspace
	psd0, psd1 spectrum.PSD
	wl         *wavelet.Workspace
	dwt        wavelet.Decomposition
	ent        entropy.Workspace
	w0, w1     []float64

	enc     *wire.Encoder // uplink frames on fleet workloads
	dec     *wire.Decoder
	scratch *serve.FileStore // the retrain replay's checkpoints
}

func newReplayer(r *runState, traced bool) (*replayer, error) {
	x := &replayer{r: r, secs: make([]int32, 0, r.in.w.prime+r.ticks)}
	if !traced {
		return x, nil
	}
	x.tr = r.tr
	win := windowSeconds * r.in.fs
	spec, err := spectrum.NewWorkspace(win, r.in.w.rate, window.Hann)
	if err != nil {
		return nil, err
	}
	x.spec, x.wl = spec, features.DefaultConfig().Wavelet.NewWorkspace()
	x.w0, x.w1 = make([]float64, win), make([]float64, win)
	if r.in.w.fleet {
		buf := new(bytes.Buffer)
		x.enc, x.dec = wire.NewEncoder(buf), wire.NewDecoder(buf)
	}
	if r.in.w.learn {
		if x.scratch, err = serve.NewFileStore(filepath.Join(r.rc.dir, "replay-store")); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func (x *replayer) start() int64 {
	if x.tr == nil {
		return 0
	}
	return x.r.clk.now()
}

// end closes a span of layer name covering units units; timed marks
// units the system also handled in its timed phase.
func (x *replayer) end(name uint8, id int64, parent int32, t0, units int64, timed bool) int32 {
	if x.tr == nil {
		return -1
	}
	t1 := x.r.clk.now()
	l := &x.layers[name]
	l.ns += t1 - t0
	l.n += units
	if timed {
		l.timed += units
	}
	return x.tr.add(name, id, parent, t0, t1)
}

// verify replays every patient through the reference and counts each
// way the system differs from it as a failed operation.
func (r *runState) verify(x *replayer) error {
	got := make([][]float64, len(r.in.ids))
	for _, e := range r.log.events() {
		if e.kind == serve.EventAlarm {
			got[e.patient] = append(got[e.patient], e.stream)
		}
	}
	var windows uint64
	for p := range r.in.ids {
		want, n, err := x.patient(p)
		if err != nil {
			return err
		}
		windows += n
		if !slices.Equal(got[p], want) {
			r.fail("alarm stream differs from the replay")
		}
		if r.sys.local != nil && r.sys.local[p].Stats().Windows != n {
			r.fail("patient window count differs from the replay")
		}
	}
	st := r.final
	r.check("windows", st.Windows, windows)
	if r.clients != nil {
		r.check("suppressed windows", st.WindowsSuppressed, x.suppressed)
		r.check("audit samples", st.AuditSamples, x.samples)
	}
	for kind, n := range map[string]uint64{
		"push rejected":    st.BatchesDropped,
		"batch shed":       max(st.BatchesShed, r.log.shed.Load()),
		"confirm rejected": st.ConfirmsRejected,
		"confirm dropped":  st.ConfirmsDropped,
		"retrain error":    max(st.RetrainErrors, r.log.retrainErrs.Load()),
		"stream error":     st.StreamErrors,
		"store error":      st.StoreErrors,
		"event dropped":    st.EventsDropped + uint64(r.log.lost.Load()),
		"prefilter drift":  max(st.PrefilterDrift, r.log.drift.Load()),
	} {
		if n > 0 {
			r.failures[kind] += n
		}
	}
	return nil
}

func (r *runState) check(what string, got, want uint64) {
	if got != want {
		r.fail(what + " differs from the replay")
	}
}

// lateTicks counts ticks the generator started later than lateLimit.
func (r *runState) lateTicks() int {
	n := 0
	for _, l := range r.late {
		if l > int64(lateLimit) {
			n++
		}
	}
	return n
}

// patient replays one patient and returns the alarm stream times the
// reference raises and the windows the system must have classified.
func (x *replayer) patient(p int) ([]float64, uint64, error) {
	r, in := x.r, x.r.in
	w := in.w
	end := w.prime + r.ticks
	x.secs = x.secs[:0]
	k0 := 0
	var model *forest.FlatForest
	switch {
	case w.learn:
		if r.confirmSec[p] < 0 {
			// Never confirmed: untrained all run, so every window scores
			// negative and no alarm fires.
			return nil, uint64(completed(end)), nil
		}
		f, v, err := x.load(p)
		if err != nil {
			return nil, 0, err
		}
		if f == nil || v != 1 || r.log.modelVer[p].Load() != 1 {
			r.fail("published model version differs from 1")
		}
		if x.tr != nil {
			if err := x.retrain(p); err != nil {
				return nil, 0, err
			}
		}
		model = f
		// The confirm followed second s: windows up to s-3 were scored
		// untrained, and window s-2 is the first the new model scores.
		k0 = r.confirmSec[p] - windowSeconds + 2
		for s := k0; s < end; s++ {
			x.secs = append(x.secs, int32(s))
		}
	default:
		f, _, err := x.load(p)
		if err != nil {
			return nil, 0, err
		}
		model = f
		if w.edge {
			if err := x.gate(p); err != nil {
				return nil, 0, err
			}
			break
		}
		for s := 0; s < end; s++ {
			x.secs = append(x.secs, int32(s))
		}
	}
	det, err := rt.NewDetector(nopClassifier{}, alarmConfig())
	if err != nil {
		return nil, 0, err
	}
	for k := 0; k < k0; k++ {
		det.PushPrediction(false)
	}
	st, err := features.NewStreamer(w.rate, features.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	var alarms []float64
	windows := uint64(k0)
	for i, s := range x.secs {
		c0, c1 := in.second(p, int(s))
		id := spanID(p, int(s))
		timed := int(s) >= w.prime
		if w.fleet && !w.edge {
			x.frame(id, timed, in.ids[p], nil, c0, c1, false)
		}
		t0 := x.start()
		var row []float64
		for j := range c0 {
			rw, ready, err := st.Push(c0[j], c1[j])
			if err != nil {
				return nil, 0, err
			}
			if ready {
				row = rw
			}
		}
		if row == nil {
			x.end(spFeatures, id, -1, t0, 0, false)
			continue
		}
		parent := x.end(spFeatures, id, -1, t0, 1, timed)
		if x.tr != nil {
			x.probe(p, x.secs[i+1-windowSeconds:i+1], id, parent, timed)
		}
		windows++
		pred := false
		if model != nil {
			t1 := x.start()
			pred = x.predict(model, row)
			x.end(spForest, id, -1, t1, 1, timed)
		}
		t2 := x.start()
		if det.PushPrediction(pred) {
			alarms = append(alarms, det.LastAlarmTime())
		}
		x.end(spRT, id, -1, t2, 1, timed)
	}
	return alarms, windows, nil
}

// nopClassifier satisfies rt.Classifier; the replay feeds the detector
// precomputed predictions, as the server does.
type nopClassifier struct{}

func (nopClassifier) Predict([]float64) bool { return false }

func (x *replayer) load(p int) (*forest.FlatForest, uint64, error) {
	t0 := x.start()
	f, v, err := x.r.store.LoadVersion(x.r.in.ids[p])
	x.end(spLoad, spanID(p, 0), -1, t0, 1, false)
	return f, v, err
}

// predict scores one row the way the server's session does: through
// the quantized forest when the model carries one.
func (x *replayer) predict(f *forest.FlatForest, row []float64) bool {
	if qf := f.Quant(); qf != nil {
		nf := qf.NumFeatures()
		if cap(x.codes) < nf {
			x.codes = make([]int16, nf)
		}
		qf.QuantizeRowInto(x.codes[:nf], row)
		qf.PredictBatchInto(x.pred[:], x.codes[:nf], 1)
		x.quant++
		return x.pred[0]
	}
	x.row[0] = row
	f.PredictBatchInto(x.pred[:], x.row[:])
	return x.pred[0]
}

// gate replays patient p's edge gate over every second, leaving the
// seconds it ships in x.secs.
func (x *replayer) gate(p int) error {
	r, in := x.r, x.r.in
	pc, err := serve.NewPrefilterClient(prefilterConfig())
	if err != nil {
		return err
	}
	id := in.ids[p]
	end := in.w.prime + r.ticks
	for s := 0; s < end; s++ {
		c0, c1 := in.second(p, s)
		sid := spanID(p, s)
		timed := s >= in.w.prime
		t0 := x.start()
		act := pc.Decide(c0, c1)
		x.end(spPrefilter, sid, -1, t0, 1, timed)
		if act.Flush.Windows > 0 {
			x.frame(sid, timed, id, &act.Flush, nil, nil, false)
		}
		switch {
		case act.Ship:
			x.secs = append(x.secs, int32(s))
			x.frame(sid, timed, id, nil, c0, c1, false)
		case act.Audit:
			x.frame(sid, timed, id, nil, c0, c1, true)
		}
		if timed {
			x.decisions++
			if act.Ship {
				x.shipped++
			}
			if act.Audit {
				x.audits++
			}
		}
	}
	if d := pc.Final(); d.Windows > 0 {
		x.frame(spanID(p, end-1), true, id, &d, nil, nil, false)
	}
	x.suppressed += pc.Suppressed()
	x.samples += pc.Samples()
	if !slices.Equal(x.secs, r.ship[p]) {
		r.fail("edge gate decisions differ from the replay")
	}
	return nil
}

// frame encodes one uplink frame as the router does and decodes it as a
// shard does, timing both: a digest frame when digest is set, an audit
// sample when audit, otherwise a push.
func (x *replayer) frame(id int64, timed bool, patient string, digest *serve.Digest, c0, c1 []float64, audit bool) {
	if x.enc == nil {
		return
	}
	before := x.enc.BytesWritten()
	t0 := x.start()
	var err error
	switch {
	case digest != nil:
		err = x.enc.PushDigest(patient, *digest)
	case audit:
		err = x.enc.AuditPush(patient, c0, c1)
	default:
		err = x.enc.Push(patient, c0, c1)
	}
	if err == nil {
		err = x.enc.Flush()
	}
	x.end(spEncode, id, -1, t0, 1, timed)
	t1 := x.start()
	msg, derr := x.dec.Next()
	x.end(spDecode, id, -1, t1, 1, timed)
	if err != nil || derr != nil {
		x.r.fail("wire round trip failed")
		return
	}
	x.frames++
	x.frameBytes += int64(x.enc.BytesWritten() - before)
	if digest == nil && !audit {
		x.pushFrames++
		if msg.Kind == wire.KindPushQ {
			x.pushQ++
		}
	}
}

// probe re-runs one window through the feature layer's children —
// spectrum, wavelet and entropy, in Features10Into's order — so each
// child's time can be taken out of the streamer's.
func (x *replayer) probe(p int, secs []int32, id int64, parent int32, timed bool) {
	fs := x.r.in.fs
	for i, s := range secs {
		c0, c1 := x.r.in.second(p, int(s))
		copy(x.w0[i*fs:], c0)
		copy(x.w1[i*fs:], c1)
	}
	cfg := features.DefaultConfig()
	// The streamer has just extracted this exact window without error,
	// so the probe's calls cannot fail; their results are not needed.
	t0 := x.start()
	_ = x.spec.PeriodogramInto(&x.psd0, x.w0)
	_ = x.spec.PeriodogramInto(&x.psd1, x.w1)
	x.end(spSpectrum, id, parent, t0, 1, timed)
	t1 := x.start()
	_ = x.wl.DecomposeInto(&x.dwt, x.wl.PadPow2(x.w1), cfg.Level)
	x.end(spWavelet, id, parent, t1, 1, timed)
	t2 := x.start()
	d := &x.dwt
	_, _ = x.ent.Permutation(d.Detail(cfg.Level), 5)
	_, _ = x.ent.Permutation(d.Detail(cfg.Level), 7)
	_, _ = x.ent.Permutation(d.Detail(cfg.Level-1), 7)
	_, _ = x.ent.RenyiSignal(d.Detail(3), cfg.RenyiAlpha, cfg.RenyiBins)
	_, _ = x.ent.SampleK(d.Detail(cfg.Level-1), cfg.SampleM, 0.2)
	_, _ = x.ent.SampleK(d.Detail(cfg.Level-1), cfg.SampleM, 0.35)
	x.end(spEntropy, id, parent, t2, 1, timed)
}

// retrain replays the learner's work for patient p's confirm — the
// buffered history's feature rows, Algorithm 1's labeling, forest
// training and the checkpoint write — timing the last three.
func (x *replayer) retrain(p int) error {
	r, in := x.r, x.r.in
	cs := r.confirmSec[p]
	rows := int(in.w.history / time.Second)
	st, err := features.NewStreamer(in.w.rate, features.DefaultConfig())
	if err != nil {
		return err
	}
	buf := make([][]float64, 0, rows)
	// The rows windows ending with window cs-3 start at second cs-rows-2.
	for s := max(0, cs-rows-windowSeconds+2); s <= cs; s++ {
		c0, c1 := in.second(p, s)
		for j := range c0 {
			row, ready, err := st.Push(c0[j], c1[j])
			if err != nil {
				return err
			}
			if ready {
				buf = append(buf, append([]float64(nil), row...))
			}
		}
	}
	cfg := features.DefaultConfig()
	m := &features.Matrix{Names: features.PaperFeatureNames(), Rows: buf, Window: cfg.Window, SampleRate: in.w.rate}
	id := spanID(p, cs)
	t0 := x.start()
	_, res, err := core.LabelMatrix(m, avgSeizure)
	x.end(spLabel, id, -1, t0, 1, true)
	if err != nil {
		return err
	}
	X, y := trainingSet(buf, res.Index, res.Window)
	t1 := x.start()
	fcfg := forest.DefaultConfig()
	fcfg.Seed = retrainSeed(in.ids[p], 1)
	f, err := forest.Train(X, y, fcfg)
	if err != nil {
		return err
	}
	flat := f.Flatten()
	if !flat.QuantParity(X) {
		flat.DropQuant()
	}
	x.end(spTrain, id, -1, t1, 1, true)
	t2 := x.start()
	if err := x.scratch.SaveVersion(in.ids[p], flat, 1); err != nil {
		return err
	}
	x.end(spSave, id, -1, t2, 1, true)
	// The rows above time the program's work only while the replay trains
	// the forest the server published; count how often it did.
	x.retrains++
	mine, err := os.ReadFile(x.scratch.PathFor(in.ids[p]))
	if err != nil {
		return err
	}
	published, err := os.ReadFile(r.store.PathFor(in.ids[p]))
	if err != nil {
		return err
	}
	if bytes.Equal(mine, published) {
		x.retrainsSame++
	}
	return nil
}

// retrainSeed is the forest seed serve's learner trains a patient's
// seq-th retrain with.
func retrainSeed(id string, seq int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64()) ^ seq
}

// trainingSet is the learner's training set: every row of the labeled
// interval [pos, pos+w) as a positive, and negatives taken from the rest
// of the buffer at the stride that yields about three per positive.
func trainingSet(rows [][]float64, pos, w int) ([][]float64, []bool) {
	var X [][]float64
	var y []bool
	for i := pos; i < pos+w && i < len(rows); i++ {
		X, y = append(X, rows[i]), append(y, true)
	}
	stride := 1
	if want, neg := 3*w, len(rows)-w; want > 0 && neg > want {
		stride = neg / want
	}
	for i := 0; i < len(rows); i += stride {
		if i < pos || i >= pos+w {
			X, y = append(X, rows[i]), append(y, false)
		}
	}
	return X, y
}

// childrenExceedParent reports whether the re-run spectrum, wavelet and
// entropy calls took longer than the streamer's whole feature span, as
// when the program's feature path stops making those calls; the
// features (self) row is then clamped at 0.
func (x *replayer) childrenExceedParent() bool {
	return x.us(spSpectrum)+x.us(spWavelet)+x.us(spEntropy) > x.us(spFeatures)
}

// featureAllocs is the streaming extractor's heap allocations per
// window, over up to 16 patients' first 64 seconds.
func (x *replayer) featureAllocs() (float64, error) {
	in := x.r.in
	streamers := make([]*features.Streamer, min(16, len(in.ids)))
	for i := range streamers {
		st, err := features.NewStreamer(in.w.rate, features.DefaultConfig())
		if err != nil {
			return 0, err
		}
		streamers[i] = st
	}
	var before, after runtime.MemStats
	windows := 0
	runtime.ReadMemStats(&before)
	for i, st := range streamers {
		for s := 0; s < 64; s++ {
			c0, c1 := in.second(i, s)
			for j := range c0 {
				if _, ready, _ := st.Push(c0[j], c1[j]); ready {
					windows++
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(windows), nil
}
