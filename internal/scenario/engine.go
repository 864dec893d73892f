package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/eval"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
	"selflearn/internal/wire"
)

// Backend is the serving surface the engine replays against: an
// in-process *serve.Server, or a *cluster.Router in front of a shardd
// fleet, as they are. Every handle call goes through retry; any error
// it does not absorb aborts the scenario.
type Backend interface {
	Open(patient string) (*serve.Stream, error)
	Snapshot() serve.Stats
}

// Collector accumulates the event-side outcomes of a run: per-patient
// alarm stream times (Event.StreamTime — the deterministic clock
// detections are scored on) and per-patient model versions (the retrain
// barrier and the run's retrain evidence). Feed it every event, either
// as a synchronous sink (local) or by draining an Events channel
// (cluster).
type Collector struct {
	mu       sync.Mutex
	alarms   map[string][]float64
	versions map[string]uint64
	total    uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{alarms: map[string][]float64{}, versions: map[string]uint64{}}
}

// Observe records one event. Safe for concurrent use; fast enough for a
// serve.WithEventSink.
func (c *Collector) Observe(ev serve.Event) {
	switch ev.Kind {
	case serve.EventAlarm:
		c.mu.Lock()
		c.alarms[ev.Patient] = append(c.alarms[ev.Patient], ev.StreamTime)
		c.total++
		c.mu.Unlock()
	case serve.EventModelUpdated:
		c.mu.Lock()
		if ev.Version > c.versions[ev.Patient] {
			c.versions[ev.Patient] = ev.Version
		}
		c.mu.Unlock()
	}
}

// AlarmTimes returns a copy of the patient's alarm stream times.
func (c *Collector) AlarmTimes(patient string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.alarms[patient]...)
}

// TotalAlarms returns the number of alarm events observed.
func (c *Collector) TotalAlarms() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Versions returns a copy of the per-patient model versions observed.
func (c *Collector) Versions() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.versions))
	for p, v := range c.versions {
		out[p] = v
	}
	return out
}

// WaitVersion blocks until the patient's model version reaches v — the
// confirm barrier that makes retraining deterministic: no batch pushed
// after it can race the model install.
func (c *Collector) WaitVersion(patient string, v uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //selflearn:wallclock-ok operational wait deadline, not replay state
	for {
		c.mu.Lock()
		cur := c.versions[patient]
		c.mu.Unlock()
		if cur >= v {
			return nil
		}
		if time.Now().After(deadline) { //selflearn:wallclock-ok operational wait deadline, not replay state
			return fmt.Errorf("scenario: %s never reached model version %d (at %d)", patient, v, cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// admittedMask mirrors the serving path's quality gate client-side: one
// bool per stream second, true when the batch would be admitted. Both
// decide with QualityConfig.Admits, so the mirror agrees with
// serve.WithQualityGate exactly, as it must: ground truth is mapped
// through it into admitted stream time.
func admittedMask(ps PatientStream, fs float64, q *signal.QualityConfig) []bool {
	n := len(ps.C0) / int(fs)
	mask := make([]bool, n)
	for i := range mask {
		lo, hi := i*int(fs), (i+1)*int(fs)
		mask[i] = q == nil || q.Admits(ps.C0[lo:hi], ps.C1[lo:hi], fs)
	}
	return mask
}

// admittedTime maps a stream time into admitted (post-prefilter) stream
// time: the clock the feature windows — and therefore the alarms — run
// on. prefix[i] is the number of admitted seconds before second i.
func admittedTime(t float64, mask []bool, prefix []int) float64 {
	sec := int(t)
	if sec >= len(mask) {
		return float64(prefix[len(mask)])
	}
	if mask[sec] {
		return float64(prefix[sec]) + (t - float64(sec))
	}
	return float64(prefix[sec])
}

// prefilterPlan is one patient's precomputed on-device replay: the
// stage-1 gate's verdict for every stream second, the trailing digest,
// and the resulting audit counters. Precomputing keeps Run's accounting
// exact — expected suppression and sample counts are known before the
// first push — and hands the witness test the gate mask that maps
// ground truth into admitted stream time.
type prefilterPlan struct {
	decl       serve.PrefilterConfig
	actions    []serve.PrefilterAction
	final      serve.Digest
	ship       []bool
	suppressed uint64
	samples    uint64
}

// buildPrefilterPlan replays the patient's seconds through a fresh
// stage-1 client — mistuned when the spec sets up the negative control.
func buildPrefilterPlan(ps PatientStream, fs int, p *PrefilterSpec) (*prefilterPlan, error) {
	client, err := serve.NewMistunedPrefilterClient(p.Config(), p.ActualGate())
	if err != nil {
		return nil, err
	}
	seconds := len(ps.C0) / fs
	plan := &prefilterPlan{
		decl:    client.Declared(),
		actions: make([]serve.PrefilterAction, seconds),
		ship:    make([]bool, seconds),
	}
	for sec := 0; sec < seconds; sec++ {
		lo := sec * fs
		a := client.Decide(ps.C0[lo:lo+fs], ps.C1[lo:lo+fs])
		plan.actions[sec] = a
		plan.ship[sec] = a.Ship
	}
	plan.final = client.Final()
	plan.suppressed = client.Suppressed()
	plan.samples = client.Samples()
	return plan, nil
}

// uplinkMeter prices one patient's uplink in wire-protocol bytes by
// encoding the exact frames a connection would carry into a discard
// writer. The meter measures the protocol, not one transport's socket,
// so local and cluster runs report the same number for the same spec —
// and the prefilter-off baseline is priced with the identical ruler.
// io.Discard cannot fail, so encode errors are impossible here.
type uplinkMeter struct {
	enc *wire.Encoder
}

func newUplinkMeter() *uplinkMeter { return &uplinkMeter{enc: wire.NewEncoder(io.Discard)} }

func (m *uplinkMeter) push(patient string, c0, c1 []float64) { _ = m.enc.Push(patient, c0, c1) }

func (m *uplinkMeter) digest(patient string, d serve.Digest) {
	if d.Windows == 0 {
		return
	}
	_ = m.enc.PushDigest(patient, d)
}

func (m *uplinkMeter) audit(patient string, c0, c1 []float64) { _ = m.enc.AuditPush(patient, c0, c1) }

func (m *uplinkMeter) declare(patient string, cfg serve.PrefilterConfig) {
	_ = m.enc.PrefilterDecl(patient, cfg)
}

func (m *uplinkMeter) confirm(patient string) { _ = m.enc.Confirm(patient) }

func (m *uplinkMeter) bytes() uint64 { return m.enc.BytesWritten() }

// Run replays the workload against the backend and scores the alarms
// the collector gathered. The collector must already be receiving the
// backend's events (sink or channel drain) before Run is called.
func (w *Workload) Run(b Backend, c *Collector) (*Result, error) {
	spec := w.Spec
	fs := int(w.SampleRate)

	var plans []*prefilterPlan
	if spec.Prefilter != nil {
		plans = make([]*prefilterPlan, len(w.Streams))
		for i, ps := range w.Streams {
			p, err := buildPrefilterPlan(ps, fs, spec.Prefilter)
			if err != nil {
				return nil, err
			}
			plans[i] = p
		}
	}

	masks := make([][]bool, len(w.Streams))
	prefixes := make([][]int, len(w.Streams))
	var expWindows, expRejects, expSuppressed, expSamples uint64
	var streamSeconds, admittedSeconds int
	for i, ps := range w.Streams {
		masks[i] = admittedMask(ps, w.SampleRate, spec.Quality)
		if plans != nil {
			// Stage 1 runs before the shard's quality gate: a suppressed
			// second never reaches it, so it is neither admitted nor a
			// quality rejection.
			for s := range masks[i] {
				masks[i][s] = masks[i][s] && plans[i].ship[s]
			}
			expSuppressed += plans[i].suppressed
			expSamples += plans[i].samples
		}
		prefix := make([]int, len(masks[i])+1)
		admitted := 0
		for s, ok := range masks[i] {
			prefix[s] = admitted
			if ok {
				admitted++
			} else if plans == nil || plans[i].ship[s] {
				expRejects++
			}
		}
		prefix[len(masks[i])] = admitted
		prefixes[i] = prefix
		streamSeconds += len(masks[i])
		admittedSeconds += admitted
		// 4 s windows on a 1 s hop: the first window completes on the
		// fourth admitted second.
		if admitted > 3 {
			expWindows += uint64(admitted - 3)
		}
	}

	// A remote fleet's counters are cumulative across loadgen runs, so
	// account everything against the delta from here. On a fresh local
	// server the baseline is zero and this is the identity.
	base := b.Snapshot()

	var wg sync.WaitGroup
	errs := make([]error, len(w.Streams))
	meters := make([]*uplinkMeter, len(w.Streams))
	for i := range w.Streams {
		meters[i] = newUplinkMeter()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var plan *prefilterPlan
			if plans != nil {
				plan = plans[i]
			}
			errs[i] = w.runPatient(b, c, w.Streams[i], fs, plan, meters[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	st, err := awaitDrain(b, base, c, spec.Admission == "block", expWindows, expRejects, expSuppressed, expSamples)
	if err != nil {
		return nil, err
	}
	// Retrain evidence: every confirming patient already passed the
	// WaitVersion barrier, so the version table names each patient that
	// closed the self-learning loop. It outlives a shard that died
	// mid-run, whose Retrains counter leaves the fleet snapshot with it.
	versions := c.Versions()
	retrains := st.Retrains
	if n := uint64(len(versions)); n > retrains {
		retrains = n
	}

	var uplink uint64
	for _, m := range meters {
		uplink += m.bytes()
	}
	res := &Result{
		Name:            spec.Name,
		Seed:            spec.Seed,
		Patients:        spec.Patients,
		Source:          w.Source,
		StreamSeconds:   float64(streamSeconds),
		AdmittedSeconds: float64(admittedSeconds),
		Windows:         st.Windows,
		QualityRejected: st.QualityRejected,
		Shed:            st.BatchesShed,
		Dropped:         st.BatchesDropped,
		Retrains:        retrains,
		Alarms:          st.Alarms,
		ModelVersions:   versions,

		UplinkBytes:        uplink,
		SuppressedWindows:  st.WindowsSuppressed,
		AuditSamples:       st.AuditSamples,
		AuditDisagreements: st.AuditDisagreements,
		DriftEvents:        st.PrefilterDrift,
	}
	var total eval.DetectionMetrics
	for i, ps := range w.Streams {
		truth := ps.Truth
		if spec.Confirm && len(truth) > 0 {
			// The first seizure trained the detector; scoring it would
			// credit the model with the event it learned from.
			truth = truth[1:]
		}
		mapped := make([]signal.Interval, len(truth))
		for k, iv := range truth {
			mapped[k] = signal.Interval{
				Start: admittedTime(iv.Start, masks[i], prefixes[i]),
				End:   admittedTime(iv.End, masks[i], prefixes[i]),
			}
		}
		dm := eval.ScoreDetections(c.AlarmTimes(ps.ID), mapped, spec.Tolerance, float64(prefixes[i][len(masks[i])]))
		total = eval.Merge(total, dm)
	}
	res.Events = total.Events
	res.Detected = total.Detected
	res.Sensitivity = total.Sensitivity
	res.FalseAlarms = total.FalseAlarms
	res.FalseAlarmsPerHour = total.FalseAlarmsPerHour
	return res, nil
}

// runPatient replays one patient's stream in one-second batches:
// churn-segmented handle lifecycle, backpressure retries, the confirm
// barrier after the first seizure, and — when the spec declares a
// prefilter — the precomputed on-device gate verdicts. Every frame that
// crosses the backend is priced into the meter.
func (w *Workload) runPatient(b Backend, c *Collector, ps PatientStream, fs int, plan *prefilterPlan, meter *uplinkMeter) error {
	spec := w.Spec
	seconds := len(ps.C0) / fs
	h, err := b.Open(ps.ID)
	if err != nil {
		return err
	}
	defer func() { h.Close() }()

	if plan != nil {
		// Declared exactly once: a re-declaration after churn would reset
		// the shard's audit state (mirror baseline, disagreement count)
		// mid-run, while the server-side session survives reopens.
		if err := retry(func() error { return h.DeclarePrefilter(plan.decl) }); err != nil {
			return fmt.Errorf("scenario: %s declare: %w", ps.ID, err)
		}
		meter.declare(ps.ID, plan.decl)
	}

	confirmAt := -1
	if spec.Confirm && len(ps.Truth) > 0 {
		confirmAt = int(math.Ceil(ps.Truth[0].End)) + 10
		if confirmAt >= seconds {
			confirmAt = seconds - 1
		}
	}
	segment := seconds
	if spec.Churn.Reopens > 0 {
		segment = seconds / (spec.Churn.Reopens + 1)
		if segment < 1 {
			segment = 1
		}
	}
	for sec := 0; sec < seconds; sec++ {
		if sec > 0 && sec%segment == 0 && spec.Churn.Reopens > 0 {
			// Handle churn: the gateway reconnects; the server-side
			// session (streamer state, model, history) must survive.
			h.Close()
			if h, err = b.Open(ps.ID); err != nil {
				return err
			}
		}
		lo := sec * fs
		c0b, c1b := ps.C0[lo:lo+fs], ps.C1[lo:lo+fs]
		if plan == nil {
			if err := retry(func() error { return h.Push(c0b, c1b) }); err != nil {
				return fmt.Errorf("scenario: %s second %d: %w", ps.ID, sec, err)
			}
			meter.push(ps.ID, c0b, c1b)
		} else if err := pushGated(h, ps.ID, sec, c0b, c1b, plan.actions[sec], meter); err != nil {
			return err
		}
		if sec == confirmAt {
			if err := retry(h.Confirm); err != nil {
				return fmt.Errorf("scenario: %s confirm: %w", ps.ID, err)
			}
			meter.confirm(ps.ID)
			if err := c.WaitVersion(ps.ID, 1, 90*time.Second); err != nil {
				return err
			}
		}
		if w.Speed > 0 {
			interval := float64(time.Second) / w.Speed
			if p := spec.Wave.Period; p >= 1 {
				// Diurnal trough: half rate through the second half of
				// each wave period, phase-shifted per patient so the
				// backend sees a rolling wave, not synchronized bursts.
				if math.Mod(float64(sec)+wavePhase(ps.ID, p), p) >= p/2 {
					interval *= 2
				}
			}
			time.Sleep(time.Duration(interval))
		}
	}
	if plan != nil && plan.final.Windows > 0 {
		if err := retry(func() error { return h.PushDigest(plan.final) }); err != nil {
			return fmt.Errorf("scenario: %s final digest: %w", ps.ID, err)
		}
		meter.digest(ps.ID, plan.final)
	}
	return nil
}

// pushGated replays one second through the on-device gate's verdict:
// the completed digest flushes first (the shard's mirror consumes
// amplitudes in stream order), then the batch crosses as a full push,
// an audit sample, or not at all.
func pushGated(h *serve.Stream, id string, sec int, c0, c1 []float64, a serve.PrefilterAction, meter *uplinkMeter) error {
	if a.Flush.Windows > 0 {
		if err := retry(func() error { return h.PushDigest(a.Flush) }); err != nil {
			return fmt.Errorf("scenario: %s digest at %d: %w", id, sec, err)
		}
		meter.digest(id, a.Flush)
	}
	switch {
	case a.Ship:
		if err := retry(func() error { return h.Push(c0, c1) }); err != nil {
			return fmt.Errorf("scenario: %s second %d: %w", id, sec, err)
		}
		meter.push(id, c0, c1)
	case a.Audit:
		if err := retry(func() error { return h.PushAudit(c0, c1) }); err != nil {
			return fmt.Errorf("scenario: %s audit at %d: %w", id, sec, err)
		}
		meter.audit(id, c0, c1)
	}
	return nil
}

// wavePhase offsets a patient's position in the load wave, derived
// from the ID so it is stable across runs.
func wavePhase(id string, period float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64() % uint64(period))
}

// Outage retry budget: a cluster backend's shard outage (a patient
// failing over) is retried for up to outageRetries × outageBackoff.
const (
	outageRetries = 600
	outageBackoff = 50 * time.Millisecond
)

// retry repeats one handle call while the backend answers
// serve.ErrBackpressure — the gateway's buffer-and-resend policy — and,
// within the outage budget, while a cluster backend reports
// cluster.ErrShardDown or cluster.ErrNoShards.
func retry(op func() error) error {
	outages := 0
	for {
		err := op()
		switch {
		case err == serve.ErrBackpressure:
			time.Sleep(time.Millisecond)
		case (errors.Is(err, cluster.ErrShardDown) || errors.Is(err, cluster.ErrNoShards)) && outages < outageRetries:
			outages++
			time.Sleep(outageBackoff)
		default:
			return err
		}
	}
}

// awaitDrain waits until the backend has processed everything the
// scenario pushed and the collector has seen every alarm event. With
// lossless (block) admission the expected counters are exact and are
// verified; with drop/shed admission the run waits for the counters to
// go quiescent instead. Retrains need no wait: the confirm barrier in
// runPatient already saw every confirming patient's new model version.
func awaitDrain(b Backend, base serve.Stats, c *Collector, exact bool, expWindows, expRejects, expSuppressed, expSamples uint64) (serve.Stats, error) {
	deadline := time.Now().Add(120 * time.Second) //selflearn:wallclock-ok operational drain timeout, not replay state
	var last serve.Stats
	stable := 0
	for {
		st := b.Snapshot().Since(base)
		if st.RetrainErrors > 0 || st.ConfirmsDropped > 0 {
			return st, fmt.Errorf("scenario: retrain failed or confirm lost: %d errors, %d lost", st.RetrainErrors, st.ConfirmsDropped)
		}
		caughtUp := c.TotalAlarms() >= st.Alarms
		if exact {
			if caughtUp && st.Windows >= expWindows && st.QualityRejected >= expRejects &&
				st.WindowsSuppressed >= expSuppressed && st.AuditSamples >= expSamples {
				if st.Windows != expWindows || st.QualityRejected != expRejects ||
					st.WindowsSuppressed != expSuppressed || st.AuditSamples != expSamples {
					return st, fmt.Errorf("scenario: drained to %d windows / %d rejects / %d suppressed / %d audits, expected exactly %d / %d / %d / %d",
						st.Windows, st.QualityRejected, st.WindowsSuppressed, st.AuditSamples,
						expWindows, expRejects, expSuppressed, expSamples)
				}
				return st, nil
			}
		} else {
			// Lossy admission: quiesce when the counters stop moving.
			if caughtUp && st.Windows == last.Windows && st.QualityRejected == last.QualityRejected &&
				st.Batches == last.Batches && st.Alarms == last.Alarms &&
				st.WindowsSuppressed == last.WindowsSuppressed && st.AuditSamples == last.AuditSamples {
				stable++
				if stable >= 20 { // ~400 ms of stillness
					return st, nil
				}
			} else {
				stable = 0
			}
			last = st
		}
		if time.Now().After(deadline) { //selflearn:wallclock-ok operational drain timeout, not replay state
			return st, fmt.Errorf("scenario: drain timed out: windows %d/%d, rejects %d/%d, alarms observed %d/%d",
				st.Windows, expWindows, st.QualityRejected, expRejects, c.TotalAlarms(), st.Alarms)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// NewLocalServer builds a serve.Server sized and configured for the
// workload, with the collector attached as a synchronous event sink
// (no event can be dropped).
func NewLocalServer(w *Workload, c *Collector) (*serve.Server, error) {
	spec := w.Spec
	cfg := serve.Config{
		Workers:            2,
		SampleRate:         w.SampleRate,
		History:            time.Duration(spec.Duration) * time.Second,
		AvgSeizureDuration: 20 * time.Second,
		AlarmCfg: rt.Config{
			VoteWindow:   5,
			VotesToRaise: 3,
			Refractory:   time.Duration(spec.Refractory * float64(time.Second)),
			Hop:          time.Second,
		},
	}
	adm, err := serve.ParseAdmission(spec.Admission)
	if err != nil {
		return nil, err
	}
	opts := []serve.Option{serve.WithEventSink(c.Observe), serve.WithEventBuffer(4096), serve.WithAdmission(adm)}
	if spec.Quality != nil {
		opts = append(opts, serve.WithQualityGate(*spec.Quality))
	}
	return serve.New(cfg, opts...)
}
