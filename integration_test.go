// Integration tests exercising cross-module flows: synthetic corpus →
// EDF persistence → feature extraction → a-posteriori labeling → detector
// training → real-time alarms, and the feature-selection story behind the
// paper's 10-feature set.
package selflearn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"selflearn/internal/chbmit"
	"selflearn/internal/core"
	"selflearn/internal/edf"
	"selflearn/internal/eval"
	"selflearn/internal/features"
	"selflearn/internal/features/selection"
	"selflearn/internal/pipeline"
	"selflearn/internal/rt"
	"selflearn/internal/signal"
	"selflearn/internal/synth"
)

// TestEndToEndEDFLabeling persists a catalogue record as EDF, reloads it,
// and verifies the a-posteriori label survives the 16-bit round trip.
func TestEndToEndEDFLabeling(t *testing.T) {
	p, err := chbmit.PatientByID("chb08")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.SeizureRecord(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Seizures[0]
	crop, err := rec.Slice(truth.Start-500, truth.Start+500)
	if err != nil {
		t.Fatal(err)
	}
	crop.RecordID = "it_chb08"
	dir := t.TempDir()
	if err := edf.SaveRecording(dir, crop); err != nil {
		t.Fatal(err)
	}
	loaded, err := edf.LoadRecording(dir, "it_chb08")
	if err != nil {
		t.Fatal(err)
	}
	avg := time.Duration(p.AvgSeizureDuration * float64(time.Second))

	label := func(r *signal.Recording) signal.Interval {
		m, err := features.Extract10(r, features.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		iv, _, err := core.LabelMatrix(m, avg)
		if err != nil {
			t.Fatal(err)
		}
		return iv
	}
	direct := label(crop)
	decoded := label(loaded)
	// The quantized path must land within a couple of seconds of the
	// direct path.
	if d := eval.Delta(direct, decoded); d > 2 {
		t.Errorf("EDF quantization moved the label by %g s", d)
	}
	if d := eval.Delta(loaded.Seizures[0], decoded); d > 30 {
		t.Errorf("label δ on decoded EDF = %g s", d)
	}
}

// TestSelfLearningToAlarms closes the loop: a session learns from two
// missed seizures, then the rt alarm layer runs over a held-out record
// and must alert during the true seizure without false alarms elsewhere.
func TestSelfLearningToAlarms(t *testing.T) {
	p, err := chbmit.PatientByID("chb01")
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 20
	session, err := pipeline.NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for event := 1; event <= 2; event++ {
		rec, err := p.SeizureRecord(event, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth := rec.Seizures[0]
		buf, err := rec.Slice(truth.Start-250, truth.Start+350)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := session.ReportMissedSeizure(buf); err != nil {
			t.Fatal(err)
		}
	}
	// Held-out record.
	test, err := p.SeizureRecord(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := test.Seizures[0]
	crop, err := test.Slice(truth.Start-300, truth.Start+300)
	if err != nil {
		t.Fatal(err)
	}
	preds, m, err := session.Detect(crop)
	if err != nil {
		t.Fatal(err)
	}
	det, err := rt.NewDetector(nopClassifier{}, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range preds {
		det.PushPrediction(pr)
	}
	alarms := det.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarm raised on a seizure record")
	}
	cropTruth := crop.Seizures[0]
	metrics := eval.ScoreDetections(alarmTimes(alarms), []signal.Interval{cropTruth}, 10, 0)
	if metrics.Detected != 1 {
		t.Errorf("seizure not detected: %+v (alarms %v)", metrics, alarms)
	}
	if metrics.FalseAlarms > 1 {
		t.Errorf("%d false alarms in a 10-minute crop", metrics.FalseAlarms)
	}
	// A window straddling the onset already contains ictal data, so the
	// alarm may legitimately fire a few seconds before the annotation.
	lat := rt.Latency(alarms, cropTruth.Start-10)
	if lat < 0 || lat > 70 {
		t.Errorf("detection latency %g s relative to onset−10 s", lat)
	}
	_ = m
}

type nopClassifier struct{}

func (nopClassifier) Predict([]float64) bool { return false }

// alarmTimes returns the stream times of alarms, in firing order.
func alarmTimes(alarms []rt.Alarm) []float64 {
	ts := make([]float64, len(alarms))
	for i, a := range alarms {
		ts[i] = a.Time
	}
	return ts
}

// TestNoFalseAlarmsOnArtifactBackground stress-tests specificity: a
// detector self-learned on real seizures must not alarm on a seizure-free
// background contaminated with routine physiological artifacts (eye
// blinks and chewing EMG).
func TestNoFalseAlarmsOnArtifactBackground(t *testing.T) {
	p, err := chbmit.PatientByID("chb05")
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 20
	opts.AugmentArtifacts = true // train the negative class on artifacts too
	session, err := pipeline.NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for event := 1; event <= 2; event++ {
		rec, err := p.SeizureRecord(event, 0)
		if err != nil {
			t.Fatal(err)
		}
		truth := rec.Seizures[0]
		buf, err := rec.Slice(truth.Start-250, truth.Start+350)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := session.ReportMissedSeizure(buf); err != nil {
			t.Fatal(err)
		}
	}
	// Ten artifact-rich seizure-free minutes.
	bg, err := p.NonSeizureRecord(600, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	fs := bg.SampleRate
	for c := range bg.Data {
		if err := synth.AddBlinks(rng, bg.Data[c], 0, bg.Samples(), fs, synth.DefaultBlink()); err != nil {
			t.Fatal(err)
		}
		if err := synth.AddChewing(rng, bg.Data[c], 100*int(fs), 60*int(fs), fs, synth.DefaultChew()); err != nil {
			t.Fatal(err)
		}
	}
	preds, _, err := session.Detect(bg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := rt.NewDetector(nopClassifier{}, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range preds {
		det.PushPrediction(pr)
	}
	if alarms := det.Alarms(); len(alarms) > 1 {
		t.Errorf("%d false alarms in 10 artifact-rich minutes: %v", len(alarms), alarms)
	}
	// Augmentation must not cost sensitivity: a held-out seizure still
	// raises an alarm.
	rec3, err := p.SeizureRecord(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec3.Seizures[0]
	crop, err := rec3.Slice(truth.Start-200, truth.Start+200)
	if err != nil {
		t.Fatal(err)
	}
	preds, _, err = session.Detect(crop)
	if err != nil {
		t.Fatal(err)
	}
	det.Reset()
	for _, pr := range preds {
		det.PushPrediction(pr)
	}
	cropTruth := crop.Seizures[0]
	m := eval.ScoreDetections(alarmTimes(det.Alarms()), []signal.Interval{cropTruth}, 10, 0)
	if m.Detected != 1 {
		t.Errorf("augmented detector missed the held-out seizure: %+v", m)
	}
}

// TestBackwardEliminationOnRealFeatures re-derives a feature ranking from
// labeled windows of the 54-feature bank and checks that class-relevant
// spectral features beat near-constant ones, mirroring how the paper's
// 10-feature set was selected.
func TestBackwardEliminationOnRealFeatures(t *testing.T) {
	p, err := chbmit.PatientByID("chb05")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Seizures[0]
	crop, err := rec.Slice(truth.Start-250, truth.Start+250)
	if err != nil {
		t.Fatal(err)
	}
	m, err := features.Extract10(crop, features.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := features.Labels(m, crop.Seizures)
	rank, err := selection.BackwardElimination(m.Rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != 10 {
		t.Fatalf("rank length %d", len(rank))
	}
	// One of the three F7T3 band-power features (columns 0-2) must rank
	// in the top three: they carry the ictal signature most directly.
	top3 := map[int]bool{rank[0]: true, rank[1]: true, rank[2]: true}
	if !top3[0] && !top3[1] && !top3[2] {
		t.Errorf("no band-power feature in the top 3 of rank %v", rank)
	}
	topName := features.PaperFeatureNames()[rank[0]]
	if !strings.Contains(topName, "power") && !strings.Contains(topName, "entropy") {
		t.Errorf("implausible top feature %q", topName)
	}
}

// TestDetectorTrainsOnAlgorithmLabels verifies the core claim end to end
// at small scale: a forest trained purely on algorithm-labeled windows
// performs close to one trained on expert labels for the same seizures.
func TestDetectorTrainsOnAlgorithmLabels(t *testing.T) {
	p, err := chbmit.PatientByID("chb04")
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.Patients = []chbmit.Patient{p}
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 15
	corpus, err := pipeline.NewCorpus(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := corpus.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.ExpertGeoMean) || math.IsNaN(res.AlgorithmGeoMean) {
		t.Fatal("NaN geomeans")
	}
	// chb04 contains an outlier-labeled seizure, so some degradation is
	// expected — but the algorithm arm must stay usable.
	if res.AlgorithmGeoMean < 0.5 {
		t.Errorf("algorithm-arm geomean %.3f collapsed", res.AlgorithmGeoMean)
	}
	if res.Degradation() < -20 {
		t.Errorf("algorithm arm implausibly better than expert arm: %+v", res)
	}
}

// TestCorpusDeterminismAcrossProcessBoundaries re-evaluates a seizure and
// checks the exact numbers against a frozen snapshot, guarding the
// reproducibility promise of DESIGN.md. If a generator change
// intentionally shifts these numbers, update the snapshot alongside
// EXPERIMENTS.md.
func TestCorpusDeterminismSnapshot(t *testing.T) {
	p, err := chbmit.PatientByID("chb01")
	if err != nil {
		t.Fatal(err)
	}
	opts := eval.DefaultOptions()
	opts.SamplesPerSeizure = 2
	sr, err := eval.EvaluateSeizure(p, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Deltas) != 2 {
		t.Fatal("sample count")
	}
	// The exact values depend only on the fixed seeds.
	for _, d := range sr.Deltas {
		if d < 0 || d > 60 {
			t.Errorf("snapshot drift: δ = %g outside the expected clean-case band", d)
		}
	}
	if sr.GeoDeltaNorm < 0.99 {
		t.Errorf("snapshot drift: δ_norm = %g", sr.GeoDeltaNorm)
	}
}
