// Command selflearnval reproduces Fig. 4 and the Section VI-B headline:
// the geometric mean of the real-time detector per patient when trained
// on doctor-labeled versus algorithm-labeled data, and the resulting
// degradation (paper: 94.95 % vs 92.60 %, −2.35 points).
//
// Usage:
//
//	selflearnval [-patient chbNN | -generic] [-eventlevel] [-crop SECONDS] [-trees N] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"

	"selflearn/internal/chbmit"
	"selflearn/internal/pipeline"
)

func main() {
	patient := flag.String("patient", "", "restrict to one patient id")
	crop := flag.Float64("crop", 2700, "record slice length per seizure in seconds (paper: 30-60 min)")
	trees := flag.Int("trees", 50, "random-forest size")
	seed := flag.Int64("seed", 1, "experiment seed")
	generic := flag.Bool("generic", false, "also run the generic-vs-personalized motivation experiment (Section I)")
	eventLevel := flag.Bool("eventlevel", false, "also run the event-level detection study (extension E11)")
	flag.Parse()
	if *generic && *patient != "" {
		fmt.Fprintln(os.Stderr, "selflearnval: -generic compares patients with each other; it cannot run with -patient")
		os.Exit(2)
	}

	opts := pipeline.DefaultOptions()
	opts.CropDuration = *crop
	opts.ForestCfg.NumTrees = *trees
	opts.Seed = *seed
	if *patient != "" {
		p, err := chbmit.PatientByID(*patient)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Patients = []chbmit.Patient{p}
	}

	// Fig. 4 and the generic experiment read the same seizure crops: one
	// corpus prepares each once.
	corpus, err := pipeline.NewCorpus(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := corpus.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("FIG. 4: GEOMETRIC MEAN, DOCTOR- VS ALGORITHM-LABELED TRAINING")
	fmt.Printf("%-10s %12s %12s %10s %10s\n", "Patient", "doctor", "algorithm", "se(drop)", "sp(drop)")
	for _, pv := range res.PerPatient {
		fmt.Printf("%-10s %11.2f%% %11.2f%% %9.2f%% %9.2f%%\n",
			pv.PatientID,
			100*pv.Expert.GeometricMean(),
			100*pv.Algorithm.GeometricMean(),
			100*(pv.Expert.Sensitivity()-pv.Algorithm.Sensitivity()),
			100*(pv.Expert.Specificity()-pv.Algorithm.Specificity()))
	}
	fmt.Println()
	fmt.Printf("Geometric mean across subjects, doctor labels:    %6.2f %%  (paper: 94.95 %%)\n", 100*res.ExpertGeoMean)
	fmt.Printf("Geometric mean across subjects, algorithm labels: %6.2f %%  (paper: 92.60 %%)\n", 100*res.AlgorithmGeoMean)
	fmt.Printf("Degradation:                                      %6.2f points (paper: 2.35)\n", res.Degradation())
	fmt.Printf("Sensitivity degradation:                          %6.2f points (paper: 2.43)\n",
		100*(res.ExpertSensitivity-res.AlgorithmSensitivity))
	fmt.Printf("Specificity degradation:                          %6.2f points (paper: 2.26)\n",
		100*(res.ExpertSpecificity-res.AlgorithmSpecificity))

	if *generic {
		fmt.Println()
		fmt.Println("GENERIC VS PERSONALIZED TRAINING (Section I motivation)")
		gres, err := corpus.Generic()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %14s %14s\n", "Patient", "personalized", "generic")
		for _, pr := range gres.PerPatient {
			fmt.Printf("%-10s %13.2f%% %13.2f%%\n",
				pr.PatientID, 100*pr.Personalized.GeometricMean(), 100*pr.Generic.GeometricMean())
		}
		fmt.Printf("Across patients: personalized %.2f %% vs generic %.2f %% (gap %.2f points)\n",
			100*gres.PersonalizedGeoMean, 100*gres.GenericGeoMean, gres.Gap())
	}

	if *eventLevel {
		fmt.Println()
		fmt.Println("EVENT-LEVEL DETECTION STUDY (extension E11)")
		eres, err := pipeline.EventLevelStudy(opts.Patients, opts, 2, 3600)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %8s %10s %14s\n", "Patient", "events", "detected", "false alarms")
		for _, pl := range eres.PerPatient {
			fmt.Printf("%-10s %8d %10d %14d\n", pl.PatientID, pl.Events, pl.Detected, pl.FalseAlarms)
		}
		fmt.Printf("Event sensitivity: %.1f %%; false alarms: %.2f /h; median latency: %.1f s\n",
			100*eres.EventSensitivity, eres.FalseAlarmsPerHour, eres.MedianLatency)
	}
}
