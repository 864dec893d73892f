package scenario

import "selflearn/internal/signal"

// Matrix returns the pinned adversarial scenario set documented in
// EXPERIMENTS.md: the named, seeded specs cmd/loadgen resolves by name
// and TestScenarioMatrix replays for determinism. The common frame —
// two patients, 420 s at 128 Hz, three 20 s seizures at 60/170/280 s,
// confirm-and-retrain after the first, block admission — keeps runs
// exactly countable; each scenario perturbs exactly one axis so a
// regression points at the subsystem that broke.
//
// The quality gate runs with default thresholds everywhere except
// clean-replay-nofilter, the control arm proving the gate is a no-op on
// clean signal.
func Matrix() []Spec {
	base := func(name string, seed int64) Spec {
		q := signal.DefaultQuality()
		return Spec{
			Name:       name,
			Seed:       seed,
			Patients:   2,
			Duration:   420,
			SampleRate: 128,
			Seizures:   Seizures{Count: 3, First: 60, Gap: 110, Duration: 20},
			Quality:    &q,
			Confirm:    true,
		}
	}

	clean := base("clean-replay", 401)

	noFilter := base("clean-replay-nofilter", 401)
	noFilter.Name = "clean-replay-nofilter"
	noFilter.Quality = nil

	benign := base("benign-artifacts", 402)
	benign.Artifacts.Blinks = true
	benign.Artifacts.Chewing = true

	burst := base("artifact-burst", 403)
	burst.Artifacts = Artifacts{Bursts: 3, BurstFirst: 95, BurstGap: 110, BurstAmp: 4000, BurstDur: 10}

	dropout := base("electrode-dropout", 404)
	dropout.Dropouts = Dropouts{Count: 3, First: 95, Gap: 110, Duration: 10, Channel: 0}

	// The CI smoke scenario: dropouts and saturating bursts interleaved
	// between the seizures, so a correct run shows nonzero admitted
	// windows AND nonzero quality rejections.
	artDrop := base("artifact-dropout", 405)
	artDrop.Dropouts = Dropouts{Count: 3, First: 95, Gap: 110, Duration: 10, Channel: 0}
	artDrop.Artifacts = Artifacts{Bursts: 2, BurstFirst: 130, BurstGap: 110, BurstAmp: 4000, BurstDur: 8}

	cluster := base("seizure-cluster", 406)
	cluster.Seizures = Seizures{Count: 5, First: 80, Gap: 45, Duration: 15}

	churn := base("patient-churn", 407)
	churn.Churn.Reopens = 5

	chb := base("chbmit-replay", 408)
	chb.Source = Source{Kind: "chbmit"}
	chb.Duration = 360
	chb.Seizures = Seizures{Count: 2}

	wave := base("diurnal-wave", 409)
	wave.Patients = 4
	wave.Wave.Period = 120

	// The uplink pair: the same seizure-sparse single-patient stream
	// replayed with and without the stage-1 prefilter, same seed so the
	// signal is identical. CI's prefilter-smoke job runs both against a
	// live shardd and demands identical alarms at a ≥10x uplink
	// reduction; the pinned witness test makes the stronger ≥100x case
	// in-process on a longer stream.
	pfOff := base("prefilter-off", 410)
	pfOff.Patients = 1
	pfOff.Duration = 1800
	pfOff.Seizures = Seizures{Count: 2, First: 120, Gap: 600, Duration: 20}

	pfOn := pfOff
	pfOn.Name = "prefilter-uplink"
	pfOn.Prefilter = &PrefilterSpec{Factor: 2.5, HistoryWindows: 32, AuditEvery: 128}

	return []Spec{clean, noFilter, benign, burst, dropout, artDrop, cluster, churn, chb, wave, pfOff, pfOn}
}

// Lookup resolves a matrix scenario by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Matrix() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
