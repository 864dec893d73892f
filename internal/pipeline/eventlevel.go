package pipeline

import (
	"fmt"

	"selflearn/internal/chbmit"
	"selflearn/internal/eval"
	"selflearn/internal/rt"
	"selflearn/internal/signal"
)

// EventLevelResult reports deployment-style metrics: per-seizure *event*
// detection (did an alarm fire during the event?) and false alarms per
// hour on seizure-free EEG — the numbers clinicians and caregivers care
// about, complementing the window-level Fig. 4 metrics.
type EventLevelResult struct {
	PerPatient []EventLevelPatient
	// EventSensitivity is detected events / total events across
	// patients.
	EventSensitivity float64
	// FalseAlarmsPerHour is the pooled false-alarm rate on seizure-free
	// background.
	FalseAlarmsPerHour float64
	// MedianLatency is the median alarm latency in seconds relative to
	// the annotated onset (alarms up to 10 s early count as latency 0;
	// windows straddling the onset already contain ictal data).
	MedianLatency float64
}

// EventLevelPatient is one patient's event-level outcome.
type EventLevelPatient struct {
	PatientID   string
	Events      int
	Detected    int
	FalseAlarms int
	// BackgroundHours of seizure-free EEG scored for false alarms.
	BackgroundHours float64
	// Latencies holds per-detected-event alarm latency in seconds.
	Latencies []float64
}

// EventLevelStudy trains a self-learning session per patient on its
// first trainEvents seizures (algorithm labels, artifact-augmented
// negatives) and scores the remaining seizures at event level plus
// bgSeconds of artifact-free background per patient, using the rt alarm
// layer with its default 3-of-5 voting.
func EventLevelStudy(patients []chbmit.Patient, opts Options, trainEvents int, bgSeconds float64) (*EventLevelResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if trainEvents < 1 {
		return nil, fmt.Errorf("pipeline: invalid training event count %d", trainEvents)
	}
	if bgSeconds < 60 {
		return nil, fmt.Errorf("pipeline: background of %g s too short", bgSeconds)
	}
	if len(patients) == 0 {
		patients = chbmit.Patients()
	}
	res := &EventLevelResult{}
	var totalEvents, totalDetected, totalFalse int
	var totalBgHours float64
	var allLatencies []float64
	for _, p := range patients {
		if len(p.Seizures) <= trainEvents {
			return nil, fmt.Errorf("pipeline: patient %s has no held-out seizures after %d training events",
				p.ID, trainEvents)
		}
		sessionOpts := opts
		sessionOpts.AugmentArtifacts = true
		session, err := NewSession(p, sessionOpts)
		if err != nil {
			return nil, err
		}
		for ev := 1; ev <= trainEvents; ev++ {
			if _, err := session.ReportSeizure(ev); err != nil {
				return nil, err
			}
		}
		pl := EventLevelPatient{PatientID: p.ID}
		// Held-out seizures at event level.
		for ev := trainEvents + 1; ev <= len(p.Seizures); ev++ {
			crop, err := heldOut(p, ev)
			if err != nil {
				return nil, err
			}
			m, lat, err := session.scoreHeldOut(crop)
			if err != nil {
				return nil, err
			}
			pl.Events++
			if m.Detected == 1 {
				pl.Detected++
				if lat >= 0 {
					pl.Latencies = append(pl.Latencies, lat)
				}
			}
			pl.FalseAlarms += m.FalseAlarms
		}
		// Seizure-free background false alarms.
		bg, err := p.NonSeizureRecord(bgSeconds, 21_000_000)
		if err != nil {
			return nil, err
		}
		alarms, err := session.alarms(bg)
		if err != nil {
			return nil, err
		}
		pl.FalseAlarms += len(alarms)
		pl.BackgroundHours = bgSeconds / 3600

		totalEvents += pl.Events
		totalDetected += pl.Detected
		totalFalse += pl.FalseAlarms
		totalBgHours += pl.BackgroundHours
		allLatencies = append(allLatencies, pl.Latencies...)
		res.PerPatient = append(res.PerPatient, pl)
	}
	if totalEvents > 0 {
		res.EventSensitivity = float64(totalDetected) / float64(totalEvents)
	}
	if totalBgHours > 0 {
		res.FalseAlarmsPerHour = float64(totalFalse) / totalBgHours
	}
	res.MedianLatency = median(allLatencies)
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	if len(sorted)%2 == 1 {
		return sorted[len(sorted)/2]
	}
	return (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
}

// heldOut renders the patient's seizure ev and keeps the 400 s around
// its onset: the record the studies score event-level detection on.
func heldOut(p chbmit.Patient, ev int) (*signal.Recording, error) {
	rec, err := p.SeizureRecord(ev, 0)
	if err != nil {
		return nil, err
	}
	onset := rec.Seizures[0].Start
	return rec.Slice(onset-200, onset+200)
}

// scoreHeldOut replays s's detector over a heldOut crop and scores the
// alarms against its seizure, counting alarms up to 10 s early. lat is
// the first alarm's delay after the annotated onset in seconds, 0 for
// an early alarm, and -1 when no alarm fires from 10 s before onset on.
func (s *Session) scoreHeldOut(crop *signal.Recording) (m eval.DetectionMetrics, lat float64, err error) {
	alarms, err := s.alarms(crop)
	if err != nil {
		return m, 0, err
	}
	t := crop.Seizures[0]
	times := make([]float64, len(alarms))
	for i, a := range alarms {
		times[i] = a.Time
	}
	m = eval.ScoreDetections(times, []signal.Interval{t}, 10, 0)
	lat = rt.Latency(alarms, t.Start-10)
	if lat > 10 {
		lat -= 10 // re-base to the annotated onset
	} else if lat >= 0 {
		lat = 0
	}
	return m, lat, nil
}

// alarms runs s's detector over rec and replays its window predictions
// through the rt alarm layer with its default 3-of-5 vote and
// refractory period.
func (s *Session) alarms(rec *signal.Recording) ([]rt.Alarm, error) {
	preds, _, err := s.Detect(rec)
	if err != nil {
		return nil, err
	}
	det, err := rt.NewDetector(noopClf{}, rt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for _, pr := range preds {
		det.PushPrediction(pr)
	}
	return det.Alarms(), nil
}

// noopClf satisfies rt.Classifier for pre-computed prediction streams.
type noopClf struct{}

func (noopClf) Predict([]float64) bool { return false }
