package serve

import (
	"fmt"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
)

// This file is the edge/cloud two-stage split: a client-side stage-1
// amplitude gate (rt.AmplitudeGate) suppresses uplink traffic during
// the overwhelmingly seizure-free hours, shipping compact digests
// instead of full-rate samples, while the shard audits the suppression
// so sensitivity never silently degrades. Two halves live here:
//
//   - PrefilterClient runs "on device": per one-second batch it decides
//     ship / suppress, folds suppressed seconds into a pending Digest,
//     and samples every AuditEvery-th suppressed window at full rate so
//     the shard periodically sees what stage 1 drops.
//   - prefilterAudit runs on the shard, attached to the patient's
//     session: it mirrors the declared gate over the amplitudes it can
//     observe (full batches, digest stats), flags suppressed spans the
//     declared gate should have shipped, replays audit-sampled windows
//     through stage 2, and raises EventPrefilterDrift when
//     disagreements cross the stream's declared threshold.

// DefaultAuditEvery is the audit sampling period (in suppressed
// windows) when a PrefilterConfig leaves AuditEvery 0;
// DefaultDriftThreshold the disagreement count that fires
// EventPrefilterDrift when it leaves DriftThreshold 0.
const (
	DefaultAuditEvery     = 32
	DefaultDriftThreshold = 3
)

// digestSpanMax bounds how many suppressed windows fold into one
// pending Digest before it is flushed even without a shipped window, so
// the shard's mirror never lags a quiet stream by more than ~a minute.
const digestSpanMax = 64

// driftSlack is the tolerance multiple on the audit mirror's trigger
// threshold. The mirror reconstructs the client's baseline from digest
// span means rather than exact per-window amplitudes, so its median can
// sit a hair off the client's; 5 % absorbs that without masking a
// genuinely mis-tuned gate (which is off by the ratio of factors, not
// percent).
const driftSlack = 1.05

// PrefilterConfig declares a client-side stage-1 prefilter: the
// amplitude gate parameters plus the audit contract between client and
// shard. It crosses the wire in a PrefilterDecl frame at stream open.
type PrefilterConfig struct {
	// Gate parameterizes the stage-1 amplitude gate (rt.AmplitudeGate).
	Gate rt.GateConfig `json:"gate"`
	// AuditEvery makes the client ship every Nth suppressed window at
	// full rate for shard-side auditing. 0 = DefaultAuditEvery.
	AuditEvery int `json:"audit_every"`
	// DriftThreshold is how many audit disagreements (digest amplitudes
	// above the declared trigger level, or audited windows stage 2
	// classifies positive) the shard tolerates before emitting
	// EventPrefilterDrift for the stream. 0 = DefaultDriftThreshold.
	DriftThreshold int `json:"drift_threshold"`
}

// Validate checks the declaration.
func (c PrefilterConfig) Validate() error {
	if err := c.Gate.Validate(); err != nil {
		return err
	}
	if c.AuditEvery < 0 {
		return fmt.Errorf("serve: negative audit period %d", c.AuditEvery)
	}
	if c.DriftThreshold < 0 {
		return fmt.Errorf("serve: negative drift threshold %d", c.DriftThreshold)
	}
	return nil
}

// auditEvery resolves the declared sampling period's zero default.
func (c PrefilterConfig) auditEvery() uint64 {
	if c.AuditEvery <= 0 {
		return DefaultAuditEvery
	}
	return uint64(c.AuditEvery)
}

// driftThreshold resolves the declared threshold's zero default.
func (c PrefilterConfig) driftThreshold() uint64 {
	if c.DriftThreshold <= 0 {
		return DefaultDriftThreshold
	}
	return uint64(c.DriftThreshold)
}

// Digest summarizes a span of contiguous suppressed windows: how many,
// and their mean-absolute-amplitude statistics. ~40 bytes on the wire
// regardless of span length — the compact substitute for up to
// digestSpanMax full-rate seconds.
type Digest struct {
	// Windows is the number of suppressed windows in the span.
	Windows uint32
	// SumAmp, MinAmp and MaxAmp aggregate the windows' mean absolute
	// amplitudes (the stage-1 statistic). SumAmp/Windows is the span
	// mean the shard's mirror feeds its baseline with; MaxAmp is what
	// the audit checks against the declared trigger level.
	SumAmp float64
	MinAmp float64
	MaxAmp float64
}

// add folds one suppressed window's amplitude into the digest.
func (d *Digest) add(amp float64) {
	if d.Windows == 0 || amp < d.MinAmp {
		d.MinAmp = amp
	}
	if d.Windows == 0 || amp > d.MaxAmp {
		d.MaxAmp = amp
	}
	d.Windows++
	d.SumAmp += amp
}

// PrefilterAction is PrefilterClient.Decide's verdict for one batch.
// Order matters on the uplink: send Flush (if any) first, then the
// batch as a full Push (Ship) or an audit sample (Audit) — the shard's
// mirror consumes amplitudes in stream order.
type PrefilterAction struct {
	// Ship: the gate triggered; send the batch at full rate.
	Ship bool
	// Audit: the batch was suppressed but sampled for auditing; send it
	// at full rate marked as an audit sample (it still counts as
	// suppressed — the digest that precedes it covers it).
	Audit bool
	// Flush, when Flush.Windows > 0, is a completed suppressed-span
	// digest that must be sent before the batch.
	Flush Digest
}

// PrefilterClient is the device half of the split. Not safe for
// concurrent use — one per stream, driven by the goroutine that pushes
// the stream's batches. The per-batch path is allocation-free.
type PrefilterClient struct {
	decl    PrefilterConfig
	gate    *rt.AmplitudeGate
	pending Digest
	// suppressed counts all suppressed windows; samples counts those
	// shipped as audit samples.
	suppressed uint64
	samples    uint64
}

// NewPrefilterClient builds the client gate from its declaration.
func NewPrefilterClient(decl PrefilterConfig) (*PrefilterClient, error) {
	return NewMistunedPrefilterClient(decl, decl.Gate)
}

// NewMistunedPrefilterClient builds a client that declares decl to the
// shard but actually gates with actual — the negative-control harness
// for the audit path (a buggy or stale device whose real gate drifted
// from what it announced). Production clients use NewPrefilterClient,
// where actual == decl.Gate.
func NewMistunedPrefilterClient(decl PrefilterConfig, actual rt.GateConfig) (*PrefilterClient, error) {
	if err := decl.Validate(); err != nil {
		return nil, err
	}
	g, err := rt.NewAmplitudeGate(actual)
	if err != nil {
		return nil, err
	}
	return &PrefilterClient{decl: decl, gate: g}, nil
}

// Declared returns the configuration the stream announces to its shard.
func (p *PrefilterClient) Declared() PrefilterConfig { return p.decl }

// Suppressed returns the number of windows suppressed so far; Samples
// how many of those shipped as audit samples.
func (p *PrefilterClient) Suppressed() uint64 { return p.suppressed }

// Samples returns the number of audit samples shipped.
func (p *PrefilterClient) Samples() uint64 { return p.samples }

// Decide runs the stage-1 gate over one batch and returns what to send.
//
//selflearn:hotpath
func (p *PrefilterClient) Decide(c0, c1 []float64) PrefilterAction {
	amp := rt.BatchAmplitude(c0, c1)
	if p.gate.Admit(amp) {
		a := PrefilterAction{Ship: true, Flush: p.pending}
		p.pending = Digest{}
		return a
	}
	p.suppressed++
	p.pending.add(amp)
	var a PrefilterAction
	if p.suppressed%p.decl.auditEvery() == 0 {
		// The digest flushes first so the shard's mirror sees this
		// window's amplitude (it is part of the span) before the full
		// samples arrive for stage-2 replay.
		p.samples++
		a = PrefilterAction{Audit: true, Flush: p.pending}
		p.pending = Digest{}
		return a
	}
	if p.pending.Windows >= digestSpanMax {
		a.Flush = p.pending
		p.pending = Digest{}
	}
	return a
}

// Final returns the pending digest (possibly empty) for the caller to
// send at stream end, and clears it.
func (p *PrefilterClient) Final() Digest {
	d := p.pending
	p.pending = Digest{}
	return d
}

// prefilterAudit is the shard half of the split, owned by the patient's
// session (worker-confined like the rest of session state). The mirror
// gate re-runs the declared stage-1 decision procedure over the
// amplitudes the shard can observe: full batches feed it exactly;
// suppressed spans feed it their digest mean, once per window — an
// approximation driftSlack absorbs.
type prefilterAudit struct {
	cfg    PrefilterConfig
	mirror *rt.AmplitudeGate
	// streamer rebuilds feature windows from audit-sampled seconds so
	// stage 2 can score what stage 1 dropped; it extracts on the
	// worker's workspace, like the session's own streamer. Sampled
	// seconds are treated as contiguous — a deterministic surrogate
	// stream; a mis-tuned gate suppressing a real seizure yields
	// consecutive ictal samples here, which is exactly what stage 2
	// flags.
	streamer *features.Streamer
	rowView  [1][]float64
	predView [1]bool

	disagreements uint64
	driftFired    bool
}

// newPrefilterAudit builds the audit state for one declared stream on
// ws, the feature workspace of the worker that owns the session.
func newPrefilterAudit(cfg PrefilterConfig, ws *features.Workspace) (*prefilterAudit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mirror, err := rt.NewAmplitudeGate(cfg.Gate)
	if err != nil {
		return nil, err
	}
	return &prefilterAudit{cfg: cfg, mirror: mirror, streamer: ws.NewStreamer()}, nil
}

// observeShipped feeds the mirror one shipped batch's amplitude,
// keeping its cold-start baseline in lockstep with the client's (which
// fed these windows while cold, and triggered on them when warm).
//
//selflearn:hotpath
func (a *prefilterAudit) observeShipped(c0, c1 []float64) {
	a.mirror.Admit(rt.BatchAmplitude(c0, c1))
}

// observeDigest audits one suppressed-span digest: checks its hottest
// window against the declared gate's current trigger level and feeds
// the mirror baseline. Returns the number of new disagreements.
func (a *prefilterAudit) observeDigest(d Digest) (disagreed uint64) {
	if d.Windows == 0 {
		return 0
	}
	if thr, warm := a.mirror.Threshold(); warm && d.MaxAmp >= thr*driftSlack {
		// The declared gate, at the baseline the shard reconstructs,
		// would have shipped the span's hottest window — stage 1 is
		// suppressing windows it promised to ship.
		disagreed = 1
	}
	mean := d.SumAmp / float64(d.Windows)
	for i := uint32(0); i < d.Windows; i++ {
		a.mirror.Admit(mean)
	}
	return disagreed
}

// observeSample replays one audit-sampled suppressed second through
// stage 2 with the session's current model, returning the number of
// disagreements (feature windows the classifier scored positive — since
// the client suppressed the second as interictal-looking).
func (a *prefilterAudit) observeSample(c0, c1 []float64, model *forest.FlatForest) uint64 {
	var disagreed uint64
	for i := range c0 {
		row, ready, err := a.streamer.Push(c0[i], c1[i])
		if err != nil {
			return disagreed
		}
		if !ready || model == nil {
			continue
		}
		a.rowView[0] = row
		model.PredictBatchInto(a.predView[:], a.rowView[:])
		if a.predView[0] {
			disagreed++
		}
	}
	return disagreed
}

// noteDisagreements accumulates audit disagreements and reports whether
// this call crossed the stream's drift threshold (the caller then emits
// EventPrefilterDrift exactly once per declaration).
func (a *prefilterAudit) noteDisagreements(n uint64) (drift bool) {
	if n == 0 {
		return false
	}
	a.disagreements += n
	if !a.driftFired && a.disagreements >= a.cfg.driftThreshold() {
		a.driftFired = true
		return true
	}
	return false
}
