package pipeline

import (
	"bytes"
	"math"
	"reflect"
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
	c, err := NewCorpus(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Validate()
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

// TestValidateDeterministic runs both experiments on two fresh corpora
// in opposite orders: the results must not depend on which experiment
// prepared a crop, and the second experiment must find every crop it
// reads already prepared. Either experiment alone reads all 6 crops of
// the two patients.
func TestValidateDeterministic(t *testing.T) {
	var ps []chbmit.Patient
	for _, id := range []string{"chb02", "chb06"} { // 3 seizures each
		p, err := chbmit.PatientByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	opts := fastOptions()
	opts.Patients = ps
	validate := func(c *Corpus) (any, error) { return c.Validate() }
	generic := func(c *Corpus) (any, error) { return c.Generic() }
	run := func(first, second func(*Corpus) (any, error)) (a, b any) {
		t.Helper()
		c, err := NewCorpus(opts)
		if err != nil {
			t.Fatal(err)
		}
		if a, err = first(c); err != nil {
			t.Fatal(err)
		}
		prepared := map[[2]int]*seizureData{}
		for k, d := range c.crops {
			prepared[k] = d
		}
		if b, err = second(c); err != nil {
			t.Fatal(err)
		}
		if len(c.crops) != 6 {
			t.Errorf("corpus holds %d crops, want the 6 seizures of chb02 and chb06", len(c.crops))
		}
		for k, d := range c.crops {
			if prepared[k] != d {
				t.Errorf("the second experiment prepared crop %v again", k)
			}
		}
		return a, b
	}
	val1, gen1 := run(validate, generic)
	gen2, val2 := run(generic, validate)
	if !reflect.DeepEqual(val1, val2) {
		t.Errorf("Validate depends on experiment order:\n%+v\n%+v", val1, val2)
	}
	if !reflect.DeepEqual(gen1, gen2) {
		t.Errorf("Generic depends on experiment order:\n%+v\n%+v", gen1, gen2)
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	opts := fastOptions()
	opts.MaxTrainSeizures = 0
	if _, err := NewCorpus(opts); err == nil {
		t.Error("invalid options should fail")
	}
}

// TestReportSeizureClampsToRecord reports a seizure so late in its
// record that a buffer starting half a crop before onset would run past
// the end: the buffer shifts back inside the record instead.
func TestReportSeizureClampsToRecord(t *testing.T) {
	p, err := chbmit.PatientByID("chb02")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOptions()
	opts.CropDuration = 3600
	s, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sz := rec.Seizures[0]
	if _, err := rec.Slice(sz.Start-1800, sz.Start+1800); err == nil {
		t.Fatalf("onset %.0f s: an unshifted 3,600 s buffer should run past the %.0f s record", sz.Start, rec.Duration())
	}
	buf, err := s.buffer(1)
	if err != nil {
		t.Fatal(err)
	}
	// The buffer is [600, 4200) of the record.
	want := signal.Interval{Start: sz.Start - 600, End: sz.End - 600}
	if buf.Duration() != 3600 || len(buf.Seizures) != 1 || buf.Seizures[0] != want {
		t.Fatalf("buffer of %g s with seizures %v, want 3600 s with %v", buf.Duration(), buf.Seizures, want)
	}
	label, err := s.ReportSeizure(1)
	if err != nil {
		t.Fatal(err)
	}
	if label.End <= want.Start || label.Start >= want.End {
		t.Errorf("label %v does not overlap the seizure at %v", label, want)
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
