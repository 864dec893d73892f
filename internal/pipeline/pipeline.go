// Package pipeline assembles the complete self-learning methodology
// (Fig. 1): a supervised real-time detector that is (re)trained from data
// labeled on-device by the a-posteriori algorithm whenever the patient
// reports a missed seizure, plus the doctor-versus-algorithm training-arm
// comparison of Section VI-B / Fig. 4.
package pipeline

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"selflearn/internal/chbmit"
	"selflearn/internal/core"
	"selflearn/internal/eval"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/ml/metrics"
	"selflearn/internal/signal"
	"selflearn/internal/stats"
	"selflearn/internal/synth"
)

// Arm selects who provides the training labels.
type Arm int

const (
	// ExpertLabels trains on the annotated ground truth (the "doctor"
	// arm of Fig. 4).
	ExpertLabels Arm = iota
	// AlgorithmLabels trains on intervals produced by the a-posteriori
	// labeling algorithm (the self-learning arm).
	AlgorithmLabels
)

// String names the arm.
func (a Arm) String() string {
	if a == ExpertLabels {
		return "doctor"
	}
	return "algorithm"
}

// Options configures the validation experiment.
type Options struct {
	// Patients to evaluate; nil means the full catalog.
	Patients []chbmit.Patient
	// MaxTrainSeizures caps the per-fold training seizures (the paper
	// uses 2 to 5).
	MaxTrainSeizures int
	// CropDuration is the length in seconds of the record slice taken
	// around each seizure (the paper draws 30–60 minute signals; the
	// default here is the midpoint).
	CropDuration float64
	// Seed drives balanced non-seizure sampling.
	Seed int64
	// FeatureCfg configures the 54-feature extraction.
	FeatureCfg features.Config
	// ForestCfg configures the random-forest detector.
	ForestCfg forest.Config
	// QualityGate, when enabled, rejects missed-seizure buffers whose
	// signal quality fails signal.AssessRecording — a flatlined or
	// rail-clipped hour would otherwise poison the training set with a
	// garbage label.
	QualityGate bool
	// QualityCfg holds the gate thresholds (zero value = defaults).
	QualityCfg signal.QualityConfig
	// AugmentArtifacts, when enabled, adds artifact-rich seizure-free
	// windows (eye blinks, chewing EMG) to the negative class on every
	// missed-seizure report. Without it a detector trained only on
	// clean negatives mistakes routine artifacts for ictal activity —
	// the classic false-alarm failure of wearable detectors.
	AugmentArtifacts bool
}

// DefaultOptions mirrors the paper's protocol at laptop-friendly scale.
func DefaultOptions() Options {
	return Options{
		MaxTrainSeizures: 5,
		CropDuration:     2700,
		Seed:             1,
		FeatureCfg:       features.DefaultConfig(),
		ForestCfg:        forest.DefaultConfig(),
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.MaxTrainSeizures < 1 {
		return fmt.Errorf("pipeline: invalid MaxTrainSeizures %d", o.MaxTrainSeizures)
	}
	if o.CropDuration < 300 || o.CropDuration > chbmit.RecordDuration {
		return fmt.Errorf("pipeline: crop duration %g outside [300, %g]", o.CropDuration, chbmit.RecordDuration)
	}
	return o.FeatureCfg.Validate()
}

// seizureData bundles one seizure's extracted materials, shared across
// folds and experiments.
type seizureData struct {
	index int
	// m54 is the 54-feature matrix of the crop.
	m54 *features.Matrix
	// truth is the expert interval, algo the a-posteriori interval, both
	// relative to the crop.
	truth, algo signal.Interval
	// labelDelta is δ between algo and truth (diagnostics).
	labelDelta float64
}

// cropAt cuts dur seconds of rec starting at lo, shifted to lie inside
// the record. It is the one buffer rule of the package: the experiments'
// crops and the studies' missed-seizure buffers both go through it.
func cropAt(rec *signal.Recording, lo, dur float64) (*signal.Recording, error) {
	if lo < 0 {
		lo = 0
	}
	if lo+dur > rec.Duration() {
		lo = rec.Duration() - dur
	}
	return rec.Slice(lo, lo+dur)
}

// prepareSeizure renders, crops and extracts one seizure record. The
// crop is centered on the seizure.
func prepareSeizure(p chbmit.Patient, seizureIdx int, opts Options) (*seizureData, error) {
	rec, err := p.SeizureRecord(seizureIdx, 0)
	if err != nil {
		return nil, err
	}
	truth := rec.Seizures[0]
	crop, err := cropAt(rec, truth.Start+truth.Duration()/2-opts.CropDuration/2, opts.CropDuration)
	if err != nil {
		return nil, err
	}
	m54, err := features.Extract54(crop, opts.FeatureCfg)
	if err != nil {
		return nil, err
	}
	m10, err := features.Extract10(crop, opts.FeatureCfg)
	if err != nil {
		return nil, err
	}
	avg := time.Duration(p.AvgSeizureDuration * float64(time.Second))
	algo, _, err := core.LabelMatrix(m10, avg)
	if err != nil {
		return nil, err
	}
	cropTruth := crop.Seizures[0]
	return &seizureData{
		index:      seizureIdx,
		m54:        m54,
		truth:      cropTruth,
		algo:       algo,
		labelDelta: eval.Delta(cropTruth, algo),
	}, nil
}

// trainingSet builds a balanced window-level training set from the given
// seizures using the labels of the chosen arm: all seizure windows plus
// an equal number of randomly drawn non-seizure windows.
func trainingSet(datas []*seizureData, arm Arm, rng *rand.Rand) (X [][]float64, y []bool, err error) {
	for _, d := range datas {
		iv := d.truth
		if arm == AlgorithmLabels {
			iv = d.algo
		}
		labels := features.Labels(d.m54, []signal.Interval{iv})
		var posIdx, negIdx []int
		for i, l := range labels {
			if l {
				posIdx = append(posIdx, i)
			} else {
				negIdx = append(negIdx, i)
			}
		}
		if len(posIdx) == 0 {
			return nil, nil, fmt.Errorf("pipeline: seizure %d produced no positive windows", d.index)
		}
		// Balanced draw of negatives.
		rng.Shuffle(len(negIdx), func(a, b int) { negIdx[a], negIdx[b] = negIdx[b], negIdx[a] })
		if len(negIdx) > len(posIdx) {
			negIdx = negIdx[:len(posIdx)]
		}
		for _, i := range posIdx {
			X = append(X, d.m54.Rows[i])
			y = append(y, true)
		}
		for _, i := range negIdx {
			X = append(X, d.m54.Rows[i])
			y = append(y, false)
		}
	}
	return X, y, nil
}

// PatientValidation is one patient's Fig. 4 data point.
type PatientValidation struct {
	PatientID string
	Ordinal   int
	// Expert and Algorithm are the pooled confusion matrices of the two
	// training arms over all leave-one-seizure-out folds.
	Expert, Algorithm metrics.Confusion
	// LabelDeltas are the per-training-seizure δ between algorithm and
	// expert labels (diagnostics).
	LabelDeltas []float64
}

// ValidationResult is the full Fig. 4 experiment.
type ValidationResult struct {
	PerPatient []PatientValidation
	// ExpertGeoMean / AlgorithmGeoMean are geometric means across
	// patients of the per-patient √(se·sp) (the paper's 94.95 % vs
	// 92.60 %).
	ExpertGeoMean, AlgorithmGeoMean float64
	// Sensitivity/specificity averages across patients per arm.
	ExpertSensitivity, AlgorithmSensitivity float64
	ExpertSpecificity, AlgorithmSpecificity float64
}

// Degradation returns the geometric-mean drop from expert- to
// algorithm-labeled training in percentage points.
func (v *ValidationResult) Degradation() float64 {
	return 100 * (v.ExpertGeoMean - v.AlgorithmGeoMean)
}

// Corpus is the prepared seizure set that both training-set experiments
// read: Fig. 4 (Validate) and the generic-versus-personalized
// comparison (Generic). Each (patient, seizure) crop is rendered,
// extracted and labeled at most once, on first use. A crop depends
// only on its patient, its seizure and the Options, so the results do
// not depend on which experiment runs first. A Corpus is not safe for
// concurrent use.
type Corpus struct {
	opts     Options
	patients []chbmit.Patient
	// crops is keyed by (index into patients, seizure index).
	crops map[[2]int]*seizureData
}

// NewCorpus checks the options and returns a corpus over opts.Patients
// (nil means the full catalog) with no crop prepared yet.
func NewCorpus(opts Options) (*Corpus, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	patients := opts.Patients
	if patients == nil {
		patients = chbmit.Patients()
	}
	return &Corpus{opts: opts, patients: patients, crops: map[[2]int]*seizureData{}}, nil
}

// seizure returns seizure seizureIdx of patient pi, preparing it on
// first use.
func (c *Corpus) seizure(pi, seizureIdx int) (*seizureData, error) {
	key := [2]int{pi, seizureIdx}
	if d, ok := c.crops[key]; ok {
		return d, nil
	}
	d, err := prepareSeizure(c.patients[pi], seizureIdx, c.opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: patient %s seizure %d: %w", c.patients[pi].ID, seizureIdx, err)
	}
	c.crops[key] = d
	return d, nil
}

// score is one fold of either experiment: it trains a forest seeded
// with seed on train's balanced windows, labeled by arm, and counts its
// predictions on test's windows against test's expert labels into conf.
func (c *Corpus) score(conf *metrics.Confusion, train []*seizureData, arm Arm, rng *rand.Rand, seed int64, test *seizureData) error {
	X, y, err := trainingSet(train, arm, rng)
	if err != nil {
		return err
	}
	cfg := c.opts.ForestCfg
	cfg.Seed = seed
	f, err := forest.Train(X, y, cfg)
	if err != nil {
		return err
	}
	labels := features.Labels(test.m54, []signal.Interval{test.truth})
	rows := test.m54.Rows
	for i, pred := range f.Flatten().PredictBatchInto(make([]bool, len(rows)), rows) {
		conf.Count(pred, labels[i])
	}
	return nil
}

// Validate runs the Section VI-B experiment: for every patient, every
// seizure serves once as the test record in a leave-one-seizure-out fold
// while up to MaxTrainSeizures of the remaining seizures form the
// balanced training set, labeled either by the expert annotations or by
// the a-posteriori algorithm. Window-level predictions on the held-out
// record (always scored against expert labels) are pooled per patient.
func (c *Corpus) Validate() (*ValidationResult, error) {
	res := &ValidationResult{}
	var geoExp, geoAlg, seExp, seAlg, spExp, spAlg []float64
	for pi := range c.patients {
		pv, err := c.validatePatient(pi)
		if err != nil {
			return nil, err
		}
		res.PerPatient = append(res.PerPatient, *pv)
		geoExp = append(geoExp, clamp01(pv.Expert.GeometricMean()))
		geoAlg = append(geoAlg, clamp01(pv.Algorithm.GeometricMean()))
		seExp = append(seExp, pv.Expert.Sensitivity())
		seAlg = append(seAlg, pv.Algorithm.Sensitivity())
		spExp = append(spExp, pv.Expert.Specificity())
		spAlg = append(spAlg, pv.Algorithm.Specificity())
	}
	res.ExpertGeoMean = stats.GeometricMean(geoExp)
	res.AlgorithmGeoMean = stats.GeometricMean(geoAlg)
	res.ExpertSensitivity = stats.Mean(seExp)
	res.AlgorithmSensitivity = stats.Mean(seAlg)
	res.ExpertSpecificity = stats.Mean(spExp)
	res.AlgorithmSpecificity = stats.Mean(spAlg)
	return res, nil
}

func clamp01(v float64) float64 {
	if v <= 0 {
		return 1e-6
	}
	if v > 1 {
		return 1
	}
	return v
}

func (c *Corpus) validatePatient(pi int) (*PatientValidation, error) {
	p := c.patients[pi]
	if len(p.Seizures) < 2 {
		return nil, fmt.Errorf("pipeline: patient %s needs at least two seizures", p.ID)
	}
	datas := make([]*seizureData, len(p.Seizures))
	pv := &PatientValidation{PatientID: p.ID, Ordinal: p.Ordinal}
	for i, sz := range p.Seizures {
		d, err := c.seizure(pi, sz.Index)
		if err != nil {
			return nil, err
		}
		datas[i] = d
		pv.LabelDeltas = append(pv.LabelDeltas, d.labelDelta)
	}
	rng := rand.New(rand.NewSource(c.opts.Seed ^ int64(p.Ordinal)))
	for testIdx, test := range datas {
		var train []*seizureData
		for i, d := range datas {
			if i != testIdx {
				train = append(train, d)
			}
		}
		if len(train) > c.opts.MaxTrainSeizures {
			train = train[:c.opts.MaxTrainSeizures]
		}
		seed := c.opts.Seed ^ int64(p.Ordinal*100+testIdx)
		if err := c.score(&pv.Expert, train, ExpertLabels, rng, seed, test); err != nil {
			return nil, fmt.Errorf("pipeline: patient %s: %w", p.ID, err)
		}
		if err := c.score(&pv.Algorithm, train, AlgorithmLabels, rng, seed, test); err != nil {
			return nil, fmt.Errorf("pipeline: patient %s: %w", p.ID, err)
		}
	}
	return pv, nil
}

// Session is the on-device self-learning loop of Fig. 1: it accumulates
// personalized training data with every reported missed seizure and
// retrains the real-time detector.
type Session struct {
	patient chbmit.Patient
	opts    Options
	rng     *rand.Rand
	trainX  [][]float64
	trainY  []bool
	det     *forest.Forest
	events  int
}

// NewSession starts an empty self-learning session for the patient.
func NewSession(p chbmit.Patient, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Session{
		patient: p,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed ^ int64(p.Ordinal)<<16)),
	}, nil
}

// Detector returns the current trained detector (nil before the first
// missed-seizure report).
func (s *Session) Detector() *forest.Forest { return s.det }

// Events returns the number of missed seizures reported so far.
func (s *Session) Events() int { return s.events }

// ReportMissedSeizure is the patient's button press: rec is the buffered
// last hour (or less) of EEG known to contain exactly one seizure. The
// a-posteriori algorithm labels it, the balanced window data is added to
// the training set, and the detector is retrained. It returns the label
// the algorithm produced.
func (s *Session) ReportMissedSeizure(rec *signal.Recording) (signal.Interval, error) {
	if err := rec.Validate(); err != nil {
		return signal.Interval{}, err
	}
	if s.opts.QualityGate {
		cfg := s.opts.QualityCfg
		if cfg == (signal.QualityConfig{}) {
			cfg = signal.DefaultQuality()
		}
		reports, ok, err := signal.AssessRecording(rec, cfg)
		if err != nil {
			return signal.Interval{}, err
		}
		if !ok {
			return signal.Interval{}, fmt.Errorf("pipeline: buffer failed the quality gate (%v)", reports)
		}
	}
	m10, err := features.Extract10(rec, s.opts.FeatureCfg)
	if err != nil {
		return signal.Interval{}, err
	}
	avg := time.Duration(s.patient.AvgSeizureDuration * float64(time.Second))
	iv, _, err := core.LabelMatrix(m10, avg)
	if err != nil {
		return signal.Interval{}, err
	}
	m54, err := features.Extract54(rec, s.opts.FeatureCfg)
	if err != nil {
		return signal.Interval{}, err
	}
	d := &seizureData{m54: m54, algo: iv}
	X, y, err := trainingSet([]*seizureData{d}, AlgorithmLabels, s.rng)
	if err != nil {
		return signal.Interval{}, err
	}
	s.trainX = append(s.trainX, X...)
	s.trainY = append(s.trainY, y...)
	if s.opts.AugmentArtifacts {
		nPos := 0
		for _, l := range y {
			if l {
				nPos++
			}
		}
		if err := s.augmentNegatives(nPos); err != nil {
			return signal.Interval{}, err
		}
	}
	cfg := s.opts.ForestCfg
	cfg.Seed = s.opts.Seed ^ int64(s.events+1)
	f, err := forest.Train(s.trainX, s.trainY, cfg)
	if err != nil {
		return signal.Interval{}, err
	}
	s.det = f
	s.events++
	return iv, nil
}

// ReportSeizure renders the patient's seizure ev and reports it through
// ReportMissedSeizure with the buffer a device would hold: CropDuration
// seconds from half a buffer before onset, shifted to lie inside the
// record. It returns the label, relative to the buffer.
func (s *Session) ReportSeizure(ev int) (signal.Interval, error) {
	buf, err := s.buffer(ev)
	if err != nil {
		return signal.Interval{}, err
	}
	return s.ReportMissedSeizure(buf)
}

// buffer is the buffer ReportSeizure reports for seizure ev.
func (s *Session) buffer(ev int) (*signal.Recording, error) {
	rec, err := s.patient.SeizureRecord(ev, 0)
	if err != nil {
		return nil, err
	}
	return cropAt(rec, rec.Seizures[0].Start-s.opts.CropDuration/2, s.opts.CropDuration)
}

// augmentNegatives synthesizes an artifact-rich seizure-free stretch for
// this patient and appends up to n of its windows as negatives.
func (s *Session) augmentNegatives(n int) error {
	if n < 1 {
		return nil
	}
	// Enough background for n windows at the 1 s hop plus one window.
	durSeconds := float64(n) + s.opts.FeatureCfg.Window.Length.Seconds() + 60
	bg, err := s.patient.NonSeizureRecord(durSeconds, int64(s.events)+7_000_000)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.opts.Seed ^ int64(s.events)<<8))
	fs := bg.SampleRate
	for c := range bg.Data {
		if err := synth.AddBlinks(rng, bg.Data[c], 0, bg.Samples(), fs, synth.DefaultBlink()); err != nil {
			return err
		}
		chewLen := bg.Samples() / 3
		if err := synth.AddChewing(rng, bg.Data[c], bg.Samples()/3, chewLen, fs, synth.DefaultChew()); err != nil {
			return err
		}
	}
	m54, err := features.Extract54(bg, s.opts.FeatureCfg)
	if err != nil {
		return err
	}
	idx := rng.Perm(m54.NumRows())
	if len(idx) > n {
		idx = idx[:n]
	}
	for _, i := range idx {
		s.trainX = append(s.trainX, m54.Rows[i])
		s.trainY = append(s.trainY, false)
	}
	return nil
}

// Detect runs the current real-time detector over a recording and
// returns per-window predictions alongside the feature matrix used.
func (s *Session) Detect(rec *signal.Recording) ([]bool, *features.Matrix, error) {
	if s.det == nil {
		return nil, nil, errors.New("pipeline: detector not trained yet")
	}
	m54, err := features.Extract54(rec, s.opts.FeatureCfg)
	if err != nil {
		return nil, nil, err
	}
	return s.det.Flatten().PredictBatchInto(make([]bool, len(m54.Rows)), m54.Rows), m54, nil
}

// SaveDetector checkpoints the trained detector (e.g. to flash between
// battery charges) as FlatForest.MarshalJSON writes it, the format
// forest.LoadFlat reads. It fails when no detector has been trained
// yet.
func (s *Session) SaveDetector(w io.Writer) error {
	if s.det == nil {
		return errors.New("pipeline: detector not trained yet")
	}
	data, err := s.det.Flatten().MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
