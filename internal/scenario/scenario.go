// Package scenario is the adversarial workload harness for the serving
// layer: seeded, declarative scenario specs that compose signal sources
// (synthetic, the CHB-MIT-mirroring catalog, or EDF files on disk) with
// the failure modes a wearable deployment actually sees — artifact
// bursts, electrode dropout, patient churn, seizure clusters — and an
// engine that replays them through a serving backend and scores the
// resulting alarms against ground truth with internal/eval.
//
// The same engine drives an in-process serve.Server (NewLocalServer,
// cmd/loadgen's default and the pinned scenario-matrix test) and a
// shardd fleet over internal/cluster (cmd/loadgen -cluster). Every
// random choice derives from Spec.Seed, so a scenario run twice
// produces identical eval rows.
package scenario

import (
	"fmt"
	"math"

	"selflearn/internal/fault"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
)

// Spec declares one scenario. The zero value of most fields selects a
// sensible default (see withDefaults); Validate rejects combinations
// the engine cannot replay deterministically.
type Spec struct {
	// Name labels the scenario in results and logs.
	Name string `json:"name"`
	// Seed drives every random choice in the scenario: signal
	// generation, artifact timing, and retrain seeds derive from it.
	Seed int64 `json:"seed"`
	// Patients is the number of concurrent patient streams. 0 = 2.
	Patients int `json:"patients,omitempty"`
	// Duration is the stream length per patient in whole seconds.
	// 0 = 420.
	Duration float64 `json:"duration_s,omitempty"`
	// SampleRate is the sampling rate in Hz; it must be a whole number
	// of samples per second and compatible with the level-7 DWT
	// (window·rate divisible by 128). 0 = 128, which keeps feature
	// extraction cheap.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Source selects where the signal comes from.
	Source Source `json:"source,omitempty"`
	// Seizures places the ground-truth discharges (synth source only;
	// catalog and EDF sources carry their own annotations).
	Seizures Seizures `json:"seizures,omitempty"`
	// Artifacts injects benign and adversarial contamination.
	Artifacts Artifacts `json:"artifacts,omitempty"`
	// Dropouts injects electrode disconnects.
	Dropouts Dropouts `json:"dropouts,omitempty"`
	// Churn exercises rapid handle close/reopen cycles.
	Churn Churn `json:"churn,omitempty"`
	// Wave modulates real-time pacing (cmd/loadgen -speed only; at full
	// replay speed it has no effect on results).
	Wave Wave `json:"wave,omitempty"`
	// Quality, when non-nil, installs the quality gate on the serving
	// path with these thresholds; the engine mirrors the same assessment
	// client-side to map ground truth into admitted stream time. Nil = no
	// quality gate.
	Quality *signal.QualityConfig `json:"quality,omitempty"`
	// Prefilter, when non-nil, replays the edge/cloud two-stage split:
	// the engine runs the declared amplitude gate "on device", ships
	// gated seconds at full rate, folds suppressed ones into compact
	// digests with periodic audit samples, and accounts the uplink in
	// wire-protocol bytes. Nil = every second ships at full rate.
	Prefilter *PrefilterSpec `json:"prefilter,omitempty"`
	// Admission is the stream admission policy: "block" (default —
	// lossless, required for exact-count determinism), "drop" or "shed".
	Admission string `json:"admission,omitempty"`
	// Confirm, when true, has each patient confirm their first seizure
	// (the paper's button press) and barrier on the resulting retrain
	// before streaming on; detection is then scored against the
	// remaining seizures only.
	Confirm bool `json:"confirm,omitempty"`
	// Tolerance extends each ground-truth event for alarm matching, in
	// seconds. 0 = 30.
	Tolerance float64 `json:"tolerance_s,omitempty"`
	// Refractory is the alarm hold-off in seconds. 0 = 30 (the rt
	// default of two minutes would mask clustered seizures).
	Refractory float64 `json:"refractory_s,omitempty"`
	// Faults, when non-nil, is the scenario's chaos plan: a seeded
	// fault-injection schedule (internal/fault) that cmd/loadgen
	// applies to its cluster connections, composing infrastructure
	// failure with the adversarial signal above. The plan carries its
	// own seed, so the fault schedule replays as deterministically as
	// the workload. Local (in-process) runs have no network to fault
	// and ignore it.
	Faults *fault.Plan `json:"faults,omitempty"`
}

// Source selects the signal origin.
type Source struct {
	// Kind is "synth" (default), "chbmit" (the nine-patient catalog
	// mirroring the paper's corpus) or "edf" (real recordings from Dir,
	// falling back to synth when Dir holds no .edf files).
	Kind string `json:"kind,omitempty"`
	// Dir is the directory of .edf files for Kind "edf".
	Dir string `json:"dir,omitempty"`
}

// Seizures places Count discharges of Duration seconds at onsets
// First, First+Gap, First+2·Gap, … A small Gap relative to Duration
// expresses a seizure cluster.
type Seizures struct {
	Count    int     `json:"count,omitempty"`
	First    float64 `json:"first_s,omitempty"`
	Gap      float64 `json:"gap_s,omitempty"` // onset-to-onset
	Duration float64 `json:"duration_s,omitempty"`
}

// Artifacts injects contamination. Blinks and Chewing are benign —
// physiological artifacts a quality gate must NOT reject — while Bursts
// are high-amplitude electrode/EMG events that should saturate it.
type Artifacts struct {
	Blinks  bool `json:"blinks,omitempty"`
	Chewing bool `json:"chewing,omitempty"`
	// Bursts places Count noise bursts of Dur seconds and Amp µV at
	// First, First+Gap, … on both channels.
	Bursts     int     `json:"bursts,omitempty"`
	BurstFirst float64 `json:"burst_first_s,omitempty"`
	BurstGap   float64 `json:"burst_gap_s,omitempty"`
	BurstAmp   float64 `json:"burst_amp,omitempty"`
	BurstDur   float64 `json:"burst_dur_s,omitempty"`
}

// Dropouts places Count electrode disconnects of Duration seconds at
// First, First+Gap, … Channel selects which electrode pair flatlines:
// 0 or 1, or -1 for both.
type Dropouts struct {
	Count    int     `json:"count,omitempty"`
	First    float64 `json:"first_s,omitempty"`
	Gap      float64 `json:"gap_s,omitempty"`
	Duration float64 `json:"duration_s,omitempty"`
	Channel  int     `json:"channel,omitempty"`
}

// Churn exercises session-handle churn: each patient's stream is closed
// and reopened Reopens times at even intervals during the run. The
// server-side session must survive (models stay warm, the feature
// streamer keeps its state).
type Churn struct {
	Reopens int `json:"reopens,omitempty"`
}

// PrefilterSpec declares the client-side stage-1 amplitude gate of the
// edge/cloud split (serve.PrefilterClient). The engine precomputes the
// gate's per-second verdicts, so the replay — and every counter derived
// from it — stays exactly deterministic.
type PrefilterSpec struct {
	// Factor is the declared gate's trigger multiple over the rolling
	// median amplitude (rt.GateConfig.Factor). Required, > 1.
	Factor float64 `json:"factor"`
	// HistoryWindows sizes the gate's rolling baseline. 0 = 64.
	HistoryWindows int `json:"history_windows,omitempty"`
	// AuditEvery ships every Nth suppressed window at full rate for the
	// shard-side audit. 0 = serve.DefaultAuditEvery.
	AuditEvery int `json:"audit_every,omitempty"`
	// DriftThreshold is the shard's audit-disagreement tolerance before
	// it emits EventPrefilterDrift. 0 = serve.DefaultDriftThreshold.
	DriftThreshold int `json:"drift_threshold,omitempty"`
	// MistuneFactor, when > 0, is the factor the device ACTUALLY gates
	// with while still declaring Factor to the shard — the negative
	// control proving the audit catches a drifted stage 1.
	MistuneFactor float64 `json:"mistune_factor,omitempty"`
}

// Config resolves the spec into the declaration the stream announces to
// its shard.
func (p PrefilterSpec) Config() serve.PrefilterConfig {
	hw := p.HistoryWindows
	if hw == 0 {
		hw = 64
	}
	return serve.PrefilterConfig{
		Gate:           rt.GateConfig{Factor: p.Factor, HistoryWindows: hw},
		AuditEvery:     p.AuditEvery,
		DriftThreshold: p.DriftThreshold,
	}
}

// ActualGate is the gate the replayed device really runs: the declared
// one, unless MistuneFactor sets up the negative control.
func (p PrefilterSpec) ActualGate() rt.GateConfig {
	g := p.Config().Gate
	if p.MistuneFactor > 0 {
		g.Factor = p.MistuneFactor
	}
	return g
}

// Wave shapes real-time pacing as a diurnal load wave with the given
// period in seconds: patients alternate between full rate and half rate.
// Only cmd/loadgen's -speed mode paces in real time; the scenario
// matrix replays at full speed where the wave is a no-op by design.
type Wave struct {
	Period float64 `json:"period_s,omitempty"`
}

// withDefaults resolves zero fields to the documented defaults.
func (s Spec) withDefaults() Spec {
	if s.Patients == 0 {
		s.Patients = 2
	}
	if s.Duration == 0 {
		s.Duration = 420
	}
	if s.SampleRate == 0 {
		s.SampleRate = 128
	}
	if s.Source.Kind == "" {
		s.Source.Kind = "synth"
	}
	if s.Admission == "" {
		s.Admission = "block"
	}
	if s.Tolerance == 0 {
		s.Tolerance = 30
	}
	if s.Refractory == 0 {
		s.Refractory = 30
	}
	return s
}

// Validate checks the spec after defaulting. The whole-second
// constraints exist because the engine replays in one-second batches
// and maps ground truth through a per-second admitted mask.
func (s Spec) Validate() error {
	if s.Patients < 1 {
		return fmt.Errorf("scenario: %d patients", s.Patients)
	}
	if s.Duration < 8 || s.Duration != math.Trunc(s.Duration) {
		return fmt.Errorf("scenario: duration %g s must be a whole number ≥ 8", s.Duration)
	}
	if s.SampleRate < 1 || s.SampleRate != math.Trunc(s.SampleRate) {
		return fmt.Errorf("scenario: sample rate %g must be a whole number ≥ 1", s.SampleRate)
	}
	switch s.Source.Kind {
	case "synth", "chbmit":
	case "edf":
		if s.Source.Dir == "" {
			return fmt.Errorf("scenario: edf source needs a directory")
		}
	default:
		return fmt.Errorf("scenario: unknown source kind %q", s.Source.Kind)
	}
	if _, err := serve.ParseAdmission(s.Admission); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Seizures.Count > 0 && s.Source.Kind == "synth" {
		last := s.Seizures.First + float64(s.Seizures.Count-1)*s.Seizures.Gap + s.Seizures.Duration
		if s.Seizures.First < 0 || s.Seizures.Duration <= 0 || last > s.Duration {
			return fmt.Errorf("scenario: seizures %+v do not fit in %g s", s.Seizures, s.Duration)
		}
		if s.Seizures.Count > 1 && s.Seizures.Gap < s.Seizures.Duration {
			return fmt.Errorf("scenario: seizure gap %g s shorter than duration %g s", s.Seizures.Gap, s.Seizures.Duration)
		}
	}
	if a := s.Artifacts; a.Bursts > 0 {
		last := a.BurstFirst + float64(a.Bursts-1)*a.BurstGap + a.BurstDur
		if a.BurstFirst < 0 || a.BurstDur <= 0 || a.BurstAmp <= 0 || last > s.Duration {
			return fmt.Errorf("scenario: bursts %+v do not fit in %g s", a, s.Duration)
		}
	}
	if d := s.Dropouts; d.Count > 0 {
		last := d.First + float64(d.Count-1)*d.Gap + d.Duration
		if d.First < 0 || d.Duration <= 0 || last > s.Duration {
			return fmt.Errorf("scenario: dropouts %+v do not fit in %g s", d, s.Duration)
		}
		if d.Channel < -1 || d.Channel > 1 {
			return fmt.Errorf("scenario: dropout channel %d (want 0, 1 or -1)", d.Channel)
		}
	}
	if s.Churn.Reopens < 0 {
		return fmt.Errorf("scenario: negative reopens %d", s.Churn.Reopens)
	}
	if s.Quality != nil {
		if err := s.Quality.Validate(); err != nil {
			return err
		}
	}
	if p := s.Prefilter; p != nil {
		if err := p.Config().Validate(); err != nil {
			return err
		}
		if err := p.ActualGate().Validate(); err != nil {
			return err
		}
	}
	if s.Tolerance < 0 || s.Refractory < 0 {
		return fmt.Errorf("scenario: negative tolerance or refractory")
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is one scenario run's eval row — the JSON object cmd/loadgen
// emits per scenario and the value the pinned matrix test compares
// across runs. Every field is deterministic for a given (spec, seed).
type Result struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Patients int    `json:"patients"`
	// Source is the signal origin actually used ("synth", "chbmit",
	// "edf", or "synth-fallback" when an EDF directory held no data).
	Source string `json:"source"`
	// StreamSeconds is the total raw seconds pushed across patients;
	// AdmittedSeconds subtracts the quality-rejected ones.
	StreamSeconds   float64 `json:"stream_seconds"`
	AdmittedSeconds float64 `json:"admitted_seconds"`
	// Windows is the number of feature windows classified (the CI smoke
	// asserts it is nonzero); QualityRejected counts batches the
	// prefilter refused; Shed and Dropped count admission losses.
	Windows         uint64 `json:"windows"`
	QualityRejected uint64 `json:"quality_rejected"`
	Shed            uint64 `json:"batches_shed"`
	Dropped         uint64 `json:"batches_dropped"`
	// Retrains counts completed background retrains — at least one per
	// patient in ModelVersions, even when a shard that did some of them
	// left the fleet mid-run; Alarms counts the alarms raised.
	Retrains uint64 `json:"retrains"`
	Alarms   uint64 `json:"alarms"`
	// ModelVersions is each retrained patient's latest model version as
	// the run observed it (cmd/loadgen max-merges the router's
	// announce-fed table over it).
	ModelVersions map[string]uint64 `json:"model_versions,omitempty"`
	// Uplink accounting for the edge/cloud split. UplinkBytes prices
	// every frame the run pushed (batches, digests, audit samples,
	// declarations, confirms) in wire-protocol bytes, so local and
	// cluster backends report the same number for the same spec.
	// SuppressedWindows, AuditSamples, AuditDisagreements and
	// DriftEvents are the shard's prefilter-audit counters; all zero
	// when the spec declares no prefilter.
	UplinkBytes        uint64 `json:"uplink_bytes"`
	SuppressedWindows  uint64 `json:"suppressed_windows"`
	AuditSamples       uint64 `json:"audit_samples"`
	AuditDisagreements uint64 `json:"audit_disagreements"`
	DriftEvents        uint64 `json:"drift_events"`
	// Detection metrics over the scored events (excluding each
	// patient's confirmed training seizure when Confirm is set).
	Events             int     `json:"events"`
	Detected           int     `json:"detected"`
	Sensitivity        float64 `json:"sensitivity"`
	FalseAlarms        int     `json:"false_alarms"`
	FalseAlarmsPerHour float64 `json:"false_alarms_per_hour"`
}
