package pipeline

import (
	"fmt"
	"math/rand"

	"selflearn/internal/chbmit"
	"selflearn/internal/eval"
	"selflearn/internal/rt"
	"selflearn/internal/signal"
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
			rec, err := p.SeizureRecord(ev, 0)
			if err != nil {
				return nil, err
			}
			truth := rec.Seizures[0]
			lo := truth.Start - o.CropDuration/2
			if lo < 0 {
				lo = 0
			}
			buf, err := rec.Slice(lo, lo+o.CropDuration)
			if err != nil {
				return nil, err
			}
			if _, err := s.ReportMissedSeizure(buf); err != nil {
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
	countAlarms := func(s *Session) (int, error) {
		preds, _, err := s.Detect(bg)
		if err != nil {
			return 0, err
		}
		det, err := rt.NewDetector(noopClf{}, rt.DefaultConfig())
		if err != nil {
			return 0, err
		}
		for _, pr := range preds {
			det.PushPrediction(pr)
		}
		return len(det.Alarms()), nil
	}
	nPlain, err := countAlarms(plain)
	if err != nil {
		return nil, err
	}
	nAug, err := countAlarms(augmented)
	if err != nil {
		return nil, err
	}
	res.FalseAlarmsPerHourPlain = float64(nPlain) / res.BackgroundHours
	res.FalseAlarmsPerHourAugmented = float64(nAug) / res.BackgroundHours

	// Sensitivity on a held-out seizure.
	test, err := p.SeizureRecord(events+1, 0)
	if err != nil {
		return nil, err
	}
	truth := test.Seizures[0]
	crop, err := test.Slice(truth.Start-200, truth.Start+200)
	if err != nil {
		return nil, err
	}
	detects := func(s *Session) (bool, error) {
		preds, _, err := s.Detect(crop)
		if err != nil {
			return false, err
		}
		det, err := rt.NewDetector(noopClf{}, rt.DefaultConfig())
		if err != nil {
			return false, err
		}
		for _, pr := range preds {
			det.PushPrediction(pr)
		}
		t := crop.Seizures[0]
		m := eval.ScoreDetections(alarmTimes(det), []signal.Interval{t}, 10, 0)
		return m.Detected == 1, nil
	}
	if res.SeizureDetectedPlain, err = detects(plain); err != nil {
		return nil, err
	}
	if res.SeizureDetectedAugmented, err = detects(augmented); err != nil {
		return nil, err
	}
	return res, nil
}

// noopClf satisfies rt.Classifier for pre-computed prediction streams.
type noopClf struct{}

func (noopClf) Predict([]float64) bool { return false }

// alarmTimes returns the stream times of det's alarms, in firing order.
func alarmTimes(det *rt.Detector) []float64 {
	alarms := det.Alarms()
	ts := make([]float64, len(alarms))
	for i, a := range alarms {
		ts[i] = a.Time
	}
	return ts
}
