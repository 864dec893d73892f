// Command reproduce runs every experiment of the paper end to end at a
// configurable scale and prints one consolidated paper-vs-measured
// verdict table. It is the single entry point for checking the whole
// reproduction:
//
//	go run ./cmd/reproduce            # reduced scale, ~50 s on 2 vCPUs
//	go run ./cmd/reproduce -samples 100 -crop 2700 -trees 50   # full scale
//
// Exit status is nonzero when any structural check deviates. The
// default output is pinned by testdata/default.golden.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"selflearn/internal/eval"
	"selflearn/internal/pipeline"
	"selflearn/internal/platform"
	"selflearn/internal/report"
	"selflearn/internal/stats"
)

func main() {
	samples := flag.Int("samples", 3, "crops per seizure for E1-E3 (paper: 100)")
	crop := flag.Float64("crop", 900, "record slice per seizure for E4/E8 in seconds (paper: 1800-3600)")
	trees := flag.Int("trees", 20, "random-forest size (full scale: 50)")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	cmp := report.NewComparison()

	// E1–E3: a-posteriori labeling quality.
	fmt.Fprintln(os.Stderr, "running E1-E3 (labeling quality)...")
	eOpts := eval.DefaultOptions()
	eOpts.SamplesPerSeizure = *samples
	eOpts.Seed = *seed
	res, err := eval.EvaluateCorpus(eOpts)
	if err != nil {
		fatal(err)
	}
	cmp.Add("E1 overall median δ", "10.1 s", report.Float(res.OverallDelta, 1)+" s",
		res.OverallDelta < 30)
	cmp.Add("E1 overall δ_norm", "0.9935", report.Float(res.OverallDeltaNorm, 4),
		res.OverallDeltaNorm > 0.98)
	outliers := 0
	for _, s := range res.AllSeizures() {
		if s.MeanDelta > 100 {
			outliers++
		}
	}
	cmp.Add("E2 artifact outliers", "3 (pat. 2/3/4)", fmt.Sprintf("%d", outliers),
		outliers == 3)
	cmp.Add("E3 within 60 s", "93.3 %", report.Percent(res.WithinSeconds(60), 1),
		math.Abs(res.WithinSeconds(60)-0.933) < 0.05)

	// E4: self-learning validation.
	fmt.Fprintln(os.Stderr, "running E4 (doctor vs algorithm labels)...")
	pOpts := pipeline.DefaultOptions()
	pOpts.CropDuration = *crop
	pOpts.ForestCfg.NumTrees = *trees
	pOpts.Seed = *seed
	// E4 and E8 read the same seizure crops: one corpus prepares each
	// once.
	corpus, err := pipeline.NewCorpus(pOpts)
	if err != nil {
		fatal(err)
	}
	val, err := corpus.Validate()
	if err != nil {
		fatal(err)
	}
	cmp.Add("E4 doctor-label geomean", "94.95 %", report.Percent(val.ExpertGeoMean, 2),
		val.ExpertGeoMean > 0.85)
	cmp.Add("E4 algorithm-label geomean", "92.60 %", report.Percent(val.AlgorithmGeoMean, 2),
		val.AlgorithmGeoMean > 0.80)
	cmp.Add("E4 degradation", "2.35 pts", report.Float(val.Degradation(), 2)+" pts",
		val.Degradation() > -3 && val.Degradation() < 10)

	// E5–E7: energy model (analytic, must match exactly).
	fmt.Fprintln(os.Stderr, "running E5-E7 (energy model)...")
	comb, err := platform.Combined(1)
	if err != nil {
		fatal(err)
	}
	life := comb.LifetimeDays(platform.BatteryCapacityMAh)
	cmp.Add("E5 lifetime @1 seizure/day", "2.59 d", report.Float(life, 2)+" d",
		math.Abs(life-2.59) < 0.01)
	shares := comb.EnergyShares()
	cmp.Add("E6 detection energy share", "85.72 %", report.Percent(shares[1], 2),
		math.Abs(shares[1]-0.8572) < 0.002)
	det := platform.DetectionOnly()
	cmp.Add("E7 detection-only lifetime", "65.15 h",
		report.Float(det.LifetimeHours(platform.BatteryCapacityMAh), 2)+" h",
		math.Abs(det.LifetimeHours(platform.BatteryCapacityMAh)-65.15) < 0.1)

	// E8: generic vs personalized.
	fmt.Fprintln(os.Stderr, "running E8 (generic vs personalized)...")
	gen, err := corpus.Generic()
	if err != nil {
		fatal(err)
	}
	cmp.Add("E8 personalization gap", "> 0 pts", report.Float(gen.Gap(), 2)+" pts",
		gen.Gap() > -2)

	// E10: Monte-Carlo discharge tracks the analytic lifetime.
	fmt.Fprintln(os.Stderr, "running E10 (Monte-Carlo discharge)...")
	sim, err := platform.SimulateDischarge(1, platform.BatteryCapacityMAh, 200, *seed)
	if err != nil {
		fatal(err)
	}
	cmp.Add("E10 simulated mean lifetime", "≈2.59 d", report.Float(sim.MeanDays, 2)+" d",
		math.Abs(sim.MeanDays-life) < 0.05)

	// Bootstrap CI for the headline (statistical sanity, not in paper).
	var meanDeltas []float64
	for _, s := range res.AllSeizures() {
		meanDeltas = append(meanDeltas, s.MeanDelta)
	}
	lo, hi, err := stats.BootstrapCI(meanDeltas, stats.Median, 1000, 0.95, *seed)
	if err != nil {
		fatal(err)
	}
	cmp.Add("median δ 95% bootstrap CI", "—",
		"["+report.Float(lo, 1)+", "+report.Float(hi, 1)+"] s", hi-lo < 60)

	fmt.Println()
	if err := cmp.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
	if !cmp.AllOK() {
		fmt.Println("one or more structural checks DEVIATE from the paper — see EXPERIMENTS.md")
		os.Exit(1)
	}
	fmt.Println("all structural checks consistent with the paper (see EXPERIMENTS.md for full-scale numbers)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
