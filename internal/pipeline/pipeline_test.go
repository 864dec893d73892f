package pipeline

import (
	"bytes"
	"math"
	"testing"

	"selflearn/internal/chbmit"
	"selflearn/internal/ml/forest"
	"selflearn/internal/ml/metrics"
	"selflearn/internal/signal"
)

// fastOptions keeps test runtime manageable: short crops, small forests.
func fastOptions() Options {
	o := DefaultOptions()
	o.CropDuration = 600
	o.ForestCfg.NumTrees = 15
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.MaxTrainSeizures = 0
	if bad.Validate() == nil {
		t.Error("MaxTrainSeizures 0 should fail")
	}
	bad = DefaultOptions()
	bad.CropDuration = 10
	if bad.Validate() == nil {
		t.Error("tiny crop should fail")
	}
	bad = DefaultOptions()
	bad.CropDuration = 1e9
	if bad.Validate() == nil {
		t.Error("oversized crop should fail")
	}
}

func TestArmString(t *testing.T) {
	if ExpertLabels.String() != "doctor" || AlgorithmLabels.String() != "algorithm" {
		t.Error("arm names wrong")
	}
}

func TestValidateSinglePatient(t *testing.T) {
	p, err := chbmit.PatientByID("chb02") // 3 seizures -> 3 folds, fast
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions()
	opts.Patients = []chbmit.Patient{p}
	res, err := Validate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPatient) != 1 {
		t.Fatalf("patients = %d", len(res.PerPatient))
	}
	pv := res.PerPatient[0]
	if pv.Expert == (metrics.Confusion{}) || pv.Algorithm == (metrics.Confusion{}) {
		t.Fatal("confusion matrices empty")
	}
	// Both arms should classify strongly on synthetic data.
	if g := pv.Expert.GeometricMean(); g < 0.7 {
		t.Errorf("expert-arm gmean = %g, want high", g)
	}
	if g := pv.Algorithm.GeometricMean(); g < 0.6 {
		t.Errorf("algorithm-arm gmean = %g, want high", g)
	}
	if len(pv.LabelDeltas) != 3 {
		t.Errorf("label deltas = %d, want one per seizure", len(pv.LabelDeltas))
	}
	if math.IsNaN(res.ExpertGeoMean) || math.IsNaN(res.AlgorithmGeoMean) {
		t.Error("overall geomeans NaN")
	}
	// Degradation should be bounded (the paper reports 2.35 points).
	if d := res.Degradation(); math.Abs(d) > 25 {
		t.Errorf("degradation %g points implausible", d)
	}
}

func TestValidateDeterministic(t *testing.T) {
	p, _ := chbmit.PatientByID("chb06") // 3 seizures
	opts := fastOptions()
	opts.Patients = []chbmit.Patient{p}
	a, err := Validate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Validate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpertGeoMean != b.ExpertGeoMean || a.AlgorithmGeoMean != b.AlgorithmGeoMean {
		t.Error("validation must be deterministic in the seed")
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	opts := fastOptions()
	opts.MaxTrainSeizures = 0
	if _, err := Validate(opts); err == nil {
		t.Error("invalid options should fail")
	}
}

func TestSessionLifecycle(t *testing.T) {
	p, err := chbmit.PatientByID("chb05")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions()
	s, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Detector() != nil {
		t.Error("fresh session should be untrained")
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Detect(rec); err == nil {
		t.Error("Detect before training should fail")
	}
	// Patient reports the missed seizure with ~10 minutes of buffer.
	truth := rec.Seizures[0]
	buf, err := rec.Slice(truth.Start-300, truth.Start+300)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := s.ReportMissedSeizure(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Detector() == nil || s.Events() != 1 {
		t.Error("session should be trained after one event")
	}
	// The produced label should sit near the true seizure (re-based).
	bufTruth := buf.Seizures[0]
	delta := (math.Abs(iv.Start-bufTruth.Start) + math.Abs(iv.End-bufTruth.End)) / 2
	if delta > 60 {
		t.Errorf("on-device label δ = %g s", delta)
	}
	// Detection on a fresh record of the same patient finds the seizure
	// region.
	rec2, err := p.SeizureRecord(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2 := rec2.Seizures[0]
	crop, err := rec2.Slice(t2.Start-200, t2.Start+200)
	if err != nil {
		t.Fatal(err)
	}
	preds, m, err := s.Detect(crop)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != m.NumRows() {
		t.Fatal("prediction length mismatch")
	}
	// At least a third of the true seizure windows should alert.
	cropTruth := crop.Seizures[0]
	var pos, tot int
	for i := range preds {
		start := m.TimeOf(i)
		if cropTruth.Contains(start + 2) {
			tot++
			if preds[i] {
				pos++
			}
		}
	}
	if tot == 0 {
		t.Fatal("no seizure windows in crop")
	}
	if float64(pos)/float64(tot) < 0.33 {
		t.Errorf("detector found %d/%d seizure windows after one self-learning event", pos, tot)
	}
}

func TestSessionCheckpoint(t *testing.T) {
	p, err := chbmit.PatientByID("chb03")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions()
	s, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveDetector(&buf); err == nil {
		t.Error("saving an untrained detector should fail")
	}
	rec, err := p.SeizureRecord(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Seizures[0]
	crop, err := rec.Slice(truth.Start-250, truth.Start+350)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportMissedSeizure(crop); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDetector(&buf); err != nil {
		t.Fatal(err)
	}
	// Fresh session restores the checkpoint and detects immediately.
	s2, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.det, err = forest.Load(&buf); err != nil {
		t.Fatal(err)
	}
	preds1, _, err := s.Detect(crop)
	if err != nil {
		t.Fatal(err)
	}
	preds2, _, err := s2.Detect(crop)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds1 {
		if preds1[i] != preds2[i] {
			t.Fatal("restored detector must predict identically")
		}
	}
}

func TestSessionRejectsInvalidRecording(t *testing.T) {
	p, _ := chbmit.PatientByID("chb01")
	s, err := NewSession(p, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportMissedSeizure(&signal.Recording{SampleRate: 256}); err == nil {
		t.Error("invalid recording should fail")
	}
}

func TestSessionQualityGate(t *testing.T) {
	p, _ := chbmit.PatientByID("chb07")
	opts := fastOptions()
	opts.QualityGate = true
	s, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Seizures[0]
	buf, err := rec.Slice(truth.Start-250, truth.Start+350)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy buffer passes the gate.
	if _, err := s.ReportMissedSeizure(buf); err != nil {
		t.Fatalf("healthy buffer rejected: %v", err)
	}
	// A flatlined copy is rejected and does not increment the event
	// count.
	events := s.Events()
	dead := &signal.Recording{
		PatientID:  buf.PatientID,
		RecordID:   "dead",
		SampleRate: buf.SampleRate,
		Channels:   append([]string(nil), buf.Channels...),
		Seizures:   append([]signal.Interval(nil), buf.Seizures...),
	}
	for range buf.Data {
		dead.Data = append(dead.Data, make([]float64, buf.Samples()))
	}
	if _, err := s.ReportMissedSeizure(dead); err == nil {
		t.Error("flatlined buffer should be rejected by the quality gate")
	}
	if s.Events() != events {
		t.Error("rejected buffer must not count as an event")
	}
}

func TestNewSessionRejectsBadOptions(t *testing.T) {
	p, _ := chbmit.PatientByID("chb01")
	opts := fastOptions()
	opts.CropDuration = 1
	if _, err := NewSession(p, opts); err == nil {
		t.Error("bad options should fail")
	}
}
