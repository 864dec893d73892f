// Command deploy produces firmware artifacts for the wearable: it runs
// the self-learning session over a patient's first seizures (labeling
// them with the a-posteriori algorithm), then writes the trained
// random-forest detector both as a JSON checkpoint and as generated C99
// tables, and reports the flash footprint against the STM32L151 budget.
//
// Usage:
//
//	deploy [-patient chb01] [-events 3] [-out ./firmware] [-trees 50]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"selflearn/internal/chbmit"
	"selflearn/internal/export/cgen"
	"selflearn/internal/ml/forest"
	"selflearn/internal/pipeline"
	"selflearn/internal/platform"
)

func main() {
	patient := flag.String("patient", "chb01", "catalog patient id")
	events := flag.Int("events", 3, "number of missed-seizure events to learn from")
	out := flag.String("out", "firmware", "output directory")
	trees := flag.Int("trees", 50, "random-forest size")
	crop := flag.Float64("crop", 900, "buffer length per event in seconds")
	flag.Parse()

	p, err := chbmit.PatientByID(*patient)
	if err != nil {
		fatal(err)
	}
	if *events < 1 || *events > len(p.Seizures) {
		fatal(fmt.Errorf("deploy: patient %s has %d seizures; -events %d invalid", p.ID, len(p.Seizures), *events))
	}
	opts := pipeline.DefaultOptions()
	opts.CropDuration = *crop
	opts.ForestCfg.NumTrees = *trees
	session, err := pipeline.NewSession(p, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("self-learning on %s: %d events\n", p.ID, *events)
	for ev := 1; ev <= *events; ev++ {
		iv, err := session.ReportSeizure(ev)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  event %d: labeled [%.0f, %.0f] s in buffer\n", ev, iv.Start, iv.End)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	// JSON checkpoint.
	jsonPath := filepath.Join(*out, p.ID+"_detector.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		fatal(err)
	}
	if err := session.SaveDetector(jf); err != nil {
		fatal(err)
	}
	if err := jf.Close(); err != nil {
		fatal(err)
	}
	// C tables: reload the checkpoint and flatten.
	jr, err := os.Open(jsonPath)
	if err != nil {
		fatal(err)
	}
	defer jr.Close()
	restored, err := loadForest(jr)
	if err != nil {
		fatal(err)
	}
	spec, err := cgen.Flatten(restored)
	if err != nil {
		fatal(err)
	}
	cPath := filepath.Join(*out, p.ID+"_detector.c")
	cf, err := os.Create(cPath)
	if err != nil {
		fatal(err)
	}
	if err := spec.WriteC(cf, "seizure_rf"); err != nil {
		fatal(err)
	}
	if err := cf.Close(); err != nil {
		fatal(err)
	}

	budget := platform.STM32L151Budget()
	kb := (spec.FlashBytes() + 1023) / 1024
	fmt.Printf("wrote %s and %s\n", jsonPath, cPath)
	fmt.Printf("model: %d trees, %d nodes, %d KB of tables (flash %d KB, hour buffer %d KB) — fits: %v\n",
		len(spec.Roots), len(spec.Feature), kb,
		budget.FlashKB, platform.HourBufferKB,
		kb+platform.HourBufferKB <= budget.FlashKB)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// loadForest wraps forest.Load for symmetry with the session checkpoint.
func loadForest(r *os.File) (*forest.Forest, error) {
	return forest.Load(r)
}
