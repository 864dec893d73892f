package pipeline

import (
	"fmt"
	"math/rand"

	"selflearn/internal/chbmit"
	"selflearn/internal/synth"
)

// FalseAlarmResult quantifies artifact robustness: alarms raised per hour
// on artifact-rich seizure-free EEG, with and without artifact-augmented
// negative training, plus the sensitivity check that augmentation does
// not cost seizure detection.
type FalseAlarmResult struct {
	// FalseAlarmsPerHourPlain / Augmented are the false-alarm rates of
	// the two training regimes on the same artifact-rich background.
	FalseAlarmsPerHourPlain     float64
	FalseAlarmsPerHourAugmented float64
	// SeizureDetectedPlain / Augmented report whether the held-out
	// seizure still raises an alarm.
	SeizureDetectedPlain     bool
	SeizureDetectedAugmented bool
	// BackgroundHours is the amount of artifact-rich background scored.
	BackgroundHours float64
}

// FalseAlarmStudy trains two self-learning sessions for the patient —
// one plain, one with AugmentArtifacts — on the same missed-seizure
// events, then scores both on an artifact-rich seizure-free background
// and on a held-out seizure record.
func FalseAlarmStudy(p chbmit.Patient, opts Options, backgroundSeconds float64, events int) (*FalseAlarmResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if backgroundSeconds < 60 {
		return nil, fmt.Errorf("pipeline: background of %g s too short", backgroundSeconds)
	}
	if events < 1 || events+1 > len(p.Seizures) {
		return nil, fmt.Errorf("pipeline: %d events invalid for patient %s with %d seizures",
			events, p.ID, len(p.Seizures))
	}
	plainOpts := opts
	plainOpts.AugmentArtifacts = false
	augOpts := opts
	augOpts.AugmentArtifacts = true

	train := func(o Options) (*Session, error) {
		s, err := NewSession(p, o)
		if err != nil {
			return nil, err
		}
		for ev := 1; ev <= events; ev++ {
			if _, err := s.ReportSeizure(ev); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	plain, err := train(plainOpts)
	if err != nil {
		return nil, err
	}
	augmented, err := train(augOpts)
	if err != nil {
		return nil, err
	}

	// Artifact-rich seizure-free background (a different variant from
	// anything augmentation generated).
	bg, err := p.NonSeizureRecord(backgroundSeconds, 13_000_000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0xFA15E))
	fs := bg.SampleRate
	for c := range bg.Data {
		if err := synth.AddBlinks(rng, bg.Data[c], 0, bg.Samples(), fs, synth.DefaultBlink()); err != nil {
			return nil, err
		}
		if err := synth.AddChewing(rng, bg.Data[c], bg.Samples()/4, bg.Samples()/4, fs, synth.DefaultChew()); err != nil {
			return nil, err
		}
	}
	res := &FalseAlarmResult{BackgroundHours: backgroundSeconds / 3600}
	plainAlarms, err := plain.alarms(bg)
	if err != nil {
		return nil, err
	}
	augAlarms, err := augmented.alarms(bg)
	if err != nil {
		return nil, err
	}
	res.FalseAlarmsPerHourPlain = float64(len(plainAlarms)) / res.BackgroundHours
	res.FalseAlarmsPerHourAugmented = float64(len(augAlarms)) / res.BackgroundHours

	// Sensitivity on a held-out seizure.
	crop, err := heldOut(p, events+1)
	if err != nil {
		return nil, err
	}
	mPlain, _, err := plain.scoreHeldOut(crop)
	if err != nil {
		return nil, err
	}
	mAug, _, err := augmented.scoreHeldOut(crop)
	if err != nil {
		return nil, err
	}
	res.SeizureDetectedPlain = mPlain.Detected == 1
	res.SeizureDetectedAugmented = mAug.Detected == 1
	return res, nil
}
