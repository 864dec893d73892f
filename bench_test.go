// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations of the design choices called out in
// DESIGN.md. Each experiment bench runs a reduced but structurally
// complete version of the experiment per iteration; the cmd/ tools run
// the full-scale versions.
package selflearn

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"selflearn/internal/chbmit"
	"selflearn/internal/core"
	"selflearn/internal/dsp/goertzel"
	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/eval"
	"selflearn/internal/features"
	"selflearn/internal/fixedpoint"
	"selflearn/internal/ml/forest"
	"selflearn/internal/pipeline"
	"selflearn/internal/platform"
)

// ---------------------------------------------------------------------------
// Shared fixtures (built once, outside the timed loops).

var fixture struct {
	once sync.Once
	err  error
	// m10 is the 10-feature matrix of a 20-minute crop around chb01's
	// first seizure; m54 the corresponding 108-column matrix.
	m10, m54 *features.Matrix
	labels   []bool
	patient  chbmit.Patient
}

func loadFixture(b *testing.B) {
	b.Helper()
	fixture.once.Do(func() {
		p, err := chbmit.PatientByID("chb01")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.patient = p
		rec, err := p.SeizureRecord(1, 0)
		if err != nil {
			fixture.err = err
			return
		}
		truth := rec.Seizures[0]
		crop, err := rec.Slice(truth.Start-600, truth.Start+600)
		if err != nil {
			fixture.err = err
			return
		}
		if fixture.m10, err = features.Extract10(crop, features.DefaultConfig()); err != nil {
			fixture.err = err
			return
		}
		if fixture.m54, err = features.Extract54(crop, features.DefaultConfig()); err != nil {
			fixture.err = err
			return
		}
		fixture.labels = features.Labels(fixture.m54, crop.Seizures)
	})
	if fixture.err != nil {
		b.Fatal(fixture.err)
	}
}

// ---------------------------------------------------------------------------
// E8 — generic vs personalized training (reduced scale).

func BenchmarkE8_GenericVsPersonalized(b *testing.B) {
	var ps []chbmit.Patient
	for _, id := range []string{"chb01", "chb09"} {
		p, err := chbmit.PatientByID(id)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	opts := pipeline.DefaultOptions()
	opts.Patients = ps
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus, err := pipeline.NewCorpus(opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := corpus.Generic()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("personalized %.2f %% vs generic %.2f %% (gap %.2f points; full-scale gap: 2.61)",
				100*res.PersonalizedGeoMean, 100*res.GenericGeoMean, res.Gap())
		}
	}
}

// E9 — artifact false-alarm study (reduced scale).

func BenchmarkE9_FalseAlarmStudy(b *testing.B) {
	p, err := chbmit.PatientByID("chb09")
	if err != nil {
		b.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.FalseAlarmStudy(p, opts, 600, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("false alarms/h: plain %.1f vs augmented %.1f",
				res.FalseAlarmsPerHourPlain, res.FalseAlarmsPerHourAugmented)
		}
	}
}

// E10 — Monte-Carlo battery discharge.

func BenchmarkE10_MonteCarloDischarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := platform.SimulateDischarge(1, platform.BatteryCapacityMAh, 200, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("simulated mean lifetime %.2f days (analytic 2.59)", sim.MeanDays)
		}
	}
}

// ---------------------------------------------------------------------------
// E1 — Table I: per-patient labeling quality.

func BenchmarkTableI_LabelingPerPatient(b *testing.B) {
	p, err := chbmit.PatientByID("chb09")
	if err != nil {
		b.Fatal(err)
	}
	opts := eval.DefaultOptions()
	opts.SamplesPerSeizure = 2
	opts.CropMin, opts.CropMax = 1800, 1800
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := eval.EvaluateSeizure(p, 1+i%len(p.Seizures), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("chb09 seizure %d: mean δ = %.1f s, δ_norm = %.4f (paper overall: 10.1 s / 0.9935)",
				sr.Index, sr.MeanDelta, sr.GeoDeltaNorm)
		}
	}
}

// E2 — Table II: per-seizure mean δ, including an artifact outlier.

func BenchmarkTableII_PerSeizure(b *testing.B) {
	p, err := chbmit.PatientByID("chb04")
	if err != nil {
		b.Fatal(err)
	}
	opts := eval.DefaultOptions()
	opts.SamplesPerSeizure = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Seizure 1 is the artifact-contaminated Table II outlier.
		sr, err := eval.EvaluateSeizure(p, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("chb04 seizure 1 (outlier): mean δ = %.0f s (paper: 408 s)", sr.MeanDelta)
		}
	}
}

// E3 — cumulative within-15/30/60 s statistics ride on the Table I/II
// machinery; the aggregation itself is benchmarked here.

func BenchmarkTableI_AggregationChain(b *testing.B) {
	loadFixture(b)
	// Synthetic per-sample deltas for 45 seizures × 100 samples.
	rng := rand.New(rand.NewSource(1))
	res := &eval.CorpusResult{}
	for p := 0; p < 9; p++ {
		pr := eval.PatientResult{Ordinal: p + 1}
		for s := 0; s < 5; s++ {
			sr := eval.SeizureResult{MeanDelta: rng.Float64() * 30}
			pr.Seizures = append(pr.Seizures, sr)
		}
		res.Patients = append(res.Patients, pr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.WithinSeconds(15)
		_ = res.WithinSeconds(30)
		_ = res.WithinSeconds(60)
	}
}

// E4 — Fig. 4: doctor- vs algorithm-labeled training.

func BenchmarkFig4_SelfLearningValidation(b *testing.B) {
	p, err := chbmit.PatientByID("chb02")
	if err != nil {
		b.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.Patients = []chbmit.Patient{p}
	opts.CropDuration = 600
	opts.ForestCfg.NumTrees = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus, err := pipeline.NewCorpus(opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := corpus.Validate()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("chb02: doctor %.2f %% vs algorithm %.2f %% (degradation %.2f points; paper: 2.35)",
				100*res.ExpertGeoMean, 100*res.AlgorithmGeoMean, res.Degradation())
		}
	}
}

// E5 — Table III: battery lifetime budget.

func BenchmarkTableIII_BatteryLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := platform.Combined(1)
		if err != nil {
			b.Fatal(err)
		}
		d := s.LifetimeDays(platform.BatteryCapacityMAh)
		if i == 0 {
			b.Logf("combined @ 1 seizure/day: %.2f days (paper: 2.59)", d)
		}
	}
}

// E6 — Fig. 5: energy share per task.

func BenchmarkFig5_EnergyShares(b *testing.B) {
	s, err := platform.Combined(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares := s.EnergyShares()
		if i == 0 {
			b.Logf("shares: %.2f / %.2f / %.2f / %.2f %% (paper: 9.47 / 85.72 / 4.77 / 0.04)",
				100*shares[0], 100*shares[1], 100*shares[2], 100*shares[3])
		}
	}
}

// E7 — Section VI-C lifetime sweep over seizure frequency.

func BenchmarkSweep_LifetimeVsFrequency(b *testing.B) {
	freqs := []float64{1.0 / 30, 1.0 / 14, 1.0 / 7, 2.0 / 7, 0.5, 1}
	for i := 0; i < b.N; i++ {
		for _, f := range freqs {
			s, err := platform.Combined(f)
			if err != nil {
				b.Fatal(err)
			}
			_ = s.LifetimeDays(platform.BatteryCapacityMAh)
		}
	}
}

// ---------------------------------------------------------------------------
// A1 — ablation: naive (pseudocode) vs decomposed labeling.

func ablationMatrix(l, f int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	X := make([][]float64, l)
	for i := range X {
		row := make([]float64, f)
		for j := range row {
			row[j] = rng.NormFloat64()
			if i >= l/3 && i < l/3+40 {
				row[j] += 3
			}
		}
		X[i] = row
	}
	return X
}

func BenchmarkAblation_NaiveLabeling(b *testing.B) {
	X := ablationMatrix(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LabelNaive(X, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_FastLabeling(b *testing.B) {
	X := ablationMatrix(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Label(X, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// A4 — ablation: Q15 fixed point (the deployed Cortex-M3 form, no FPU)
// vs float64 labeling.

func BenchmarkAblation_FixedPointLabeling(b *testing.B) {
	X := ablationMatrix(300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fixedpoint.Label(X, 40, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fl, err := core.Label(X, 40)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("fixed argmax %d vs float argmax %d", res.Index, fl.Index)
		}
	}
}

// BenchmarkLabelFast_OneHour checks the paper's real-time envelope ("one
// second of signal is processed in one second"): labeling a full hour of
// features must finish orders of magnitude faster than the hour itself.
func BenchmarkLabelFast_OneHour(b *testing.B) {
	X := ablationMatrix(3600, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Label(X, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// A2 — ablation: labeling quality/cost vs feature count.

func BenchmarkAblation_FeatureCount(b *testing.B) {
	loadFixture(b)
	for _, n := range []int{3, 10} {
		cols := make([]int, n)
		for i := range cols {
			cols[i] = i
		}
		sub, err := fixture.m10.Select(cols)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{3: "features=3", 10: "features=10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.LabelMatrix(sub, 60*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A3 — ablation: the random-forest detector's train-and-predict cost
// on the 108-column window features.

func BenchmarkAblation_ClassifierBaselines(b *testing.B) {
	loadFixture(b)
	X, y := fixture.m54.Rows, fixture.labels
	b.Run("random-forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := forest.DefaultConfig()
			cfg.NumTrees = 20
			f, err := forest.Train(X, y, cfg)
			if err != nil {
				b.Fatal(err)
			}
			_ = f.Flatten().PredictBatchInto(make([]bool, len(X)), X)
		}
	})
}

// A6 — ablation: Goertzel vs FFT-periodogram band power (the embedded
// trade: O(N) per band vs one FFT for all bands).

func BenchmarkAblation_BandPowerBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.Run("periodogram-all-bands", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spectrum.BandPowers(xs, 256, spectrum.ClinicalBands()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("goertzel-delta-theta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := goertzel.BandPower(xs, 256, 0.5, 4); err != nil {
				b.Fatal(err)
			}
			if _, err := goertzel.BandPower(xs, 256, 4, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Component throughput benches.

func BenchmarkExtract10_TwentyMinutes(b *testing.B) {
	p, err := chbmit.PatientByID("chb01")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	crop, err := rec.Slice(0, 1200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract10(crop, features.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract54_FiveMinutes(b *testing.B) {
	p, err := chbmit.PatientByID("chb01")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := p.SeizureRecord(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	crop, err := rec.Slice(0, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract54(crop, features.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
