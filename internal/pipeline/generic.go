package pipeline

import (
	"fmt"
	"math/rand"

	"selflearn/internal/ml/metrics"
	"selflearn/internal/stats"
)

// GenericResult compares personalized training (same-patient seizures,
// the paper's protocol) against generic training (other patients'
// seizures) at equal training-set size. Section I motivates the whole
// methodology with the observation that "the variability of the brain
// signals across patients significantly degrades the classification
// performance between generic and personalized approaches"; this
// experiment quantifies that claim on the synthetic corpus.
type GenericResult struct {
	PerPatient []GenericPatientResult
	// PersonalizedGeoMean / GenericGeoMean aggregate across patients.
	PersonalizedGeoMean, GenericGeoMean float64
}

// GenericPatientResult is one patient's comparison.
type GenericPatientResult struct {
	PatientID    string
	Ordinal      int
	TrainCount   int
	Personalized metrics.Confusion
	Generic      metrics.Confusion
}

// Gap returns the personalized-minus-generic geometric-mean gap in
// percentage points.
func (g *GenericResult) Gap() float64 {
	return 100 * (g.PersonalizedGeoMean - g.GenericGeoMean)
}

// Generic runs the generic-vs-personalized experiment. For every
// patient, the last seizure record is held out for testing. The
// personalized arm trains on up to MaxTrainSeizures of the patient's
// other seizures; the generic arm trains on the *same number* of
// seizures drawn one per other patient, so the only variable is whose
// EEG the training data comes from. Both training sets are balanced at
// the window level and labeled with expert annotations (best case for
// both arms).
func (c *Corpus) Generic() (*GenericResult, error) {
	patients := c.patients
	if len(patients) < 2 {
		return nil, fmt.Errorf("pipeline: generic experiment needs >=2 patients, got %d", len(patients))
	}
	res := &GenericResult{}
	var geoPers, geoGen []float64
	for i, p := range patients {
		test, err := c.seizure(i, len(p.Seizures))
		if err != nil {
			return nil, err
		}

		// Personalized arm: own seizures, excluding the test one.
		nOwn := len(p.Seizures) - 1
		if nOwn > c.opts.MaxTrainSeizures {
			nOwn = c.opts.MaxTrainSeizures
		}
		if nOwn > len(patients)-1 {
			nOwn = len(patients) - 1 // keep both arms the same size
		}
		if nOwn < 1 {
			return nil, fmt.Errorf("pipeline: patient %s has no training seizures", p.ID)
		}
		var own []*seizureData
		for s := 1; len(own) < nOwn && s < len(p.Seizures); s++ {
			d, err := c.seizure(i, s)
			if err != nil {
				return nil, err
			}
			own = append(own, d)
		}
		// Generic arm: the same count, one seizure per other patient
		// (preferring each patient's second seizure — the first is an
		// artifact outlier for two catalogue patients).
		var foreign []*seizureData
		for j := range patients {
			if j == i || len(foreign) == len(own) {
				continue
			}
			idx := 2
			if len(patients[j].Seizures) < 2 {
				idx = 1
			}
			d, err := c.seizure(j, idx)
			if err != nil {
				return nil, err
			}
			foreign = append(foreign, d)
		}
		if len(foreign) != len(own) {
			return nil, fmt.Errorf("pipeline: cannot balance arms for %s (%d own, %d foreign)",
				p.ID, len(own), len(foreign))
		}

		pr := GenericPatientResult{PatientID: p.ID, Ordinal: p.Ordinal, TrainCount: len(own)}
		rng := rand.New(rand.NewSource(c.opts.Seed ^ int64(1000+p.Ordinal)))
		seed := c.opts.Seed ^ int64(p.Ordinal*7)
		if err := c.score(&pr.Personalized, own, ExpertLabels, rng, seed, test); err != nil {
			return nil, err
		}
		if err := c.score(&pr.Generic, foreign, ExpertLabels, rng, seed, test); err != nil {
			return nil, err
		}
		res.PerPatient = append(res.PerPatient, pr)
		geoPers = append(geoPers, clamp01(pr.Personalized.GeometricMean()))
		geoGen = append(geoGen, clamp01(pr.Generic.GeometricMean()))
	}
	res.PersonalizedGeoMean = stats.GeometricMean(geoPers)
	res.GenericGeoMean = stats.GeometricMean(geoGen)
	return res, nil
}
