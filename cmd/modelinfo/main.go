// Command modelinfo inspects a detector checkpoint produced by
// cmd/deploy, pipeline.Session.SaveDetector or a shard's model store:
// ensemble shape, flash footprint of the generated C tables, and — for
// freshly trained models — the most important features, which a
// checkpoint does not carry. It loads a checkpoint with
// forest.LoadFlat, as a shard does, so it refuses what a shard refuses.
//
// Usage:
//
//	modelinfo -model firmware/chb01_detector.json
//	modelinfo -train chb01    (train a small detector in-process and inspect it)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"selflearn/internal/chbmit"
	"selflearn/internal/export/cgen"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/pipeline"
	"selflearn/internal/platform"
	"selflearn/internal/signal"
)

func main() {
	model := flag.String("model", "", "path to a detector JSON checkpoint")
	train := flag.String("train", "", "train a quick detector for this catalog patient instead")
	topK := flag.Int("top", 10, "number of top features to list")
	flag.Parse()

	var ff *forest.FlatForest
	var imp []float64
	var names []string
	switch {
	case *model != "":
		data, err := os.ReadFile(*model)
		if err != nil {
			fatal(err)
		}
		if ff, err = forest.LoadFlat(data); err != nil {
			fatal(err)
		}
	case *train != "":
		f, err := quickTrain(*train)
		if err != nil {
			fatal(err)
		}
		ff, imp = f.Flatten(), f.Importances()
		base := features.EGlassFeatureNames()
		for _, ch := range []string{signal.ChannelF7T3, signal.ChannelF8T4} {
			for _, n := range base {
				names = append(names, ch+"/"+n)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "modelinfo: need -model or -train")
		os.Exit(2)
	}

	fmt.Printf("trees: %d\n", ff.NumTrees())
	fmt.Printf("out-of-bag error: %.4f\n", ff.OOBError())
	spec := cgen.Flatten(ff)
	kb := (spec.FlashBytes() + 1023) / 1024
	fmt.Printf("nodes: %d, input features: %d\n", len(spec.Feature), spec.NumFeatures)
	fmt.Printf("C tables: %d bytes (%d KB) — STM32L151 flash %d KB, fits with hour buffer: %v\n",
		spec.FlashBytes(), kb, platform.FlashKB,
		kb+platform.HourBufferKB <= platform.FlashKB)

	var any bool
	for _, v := range imp {
		if v > 0 {
			any = true
			break
		}
	}
	if !any {
		fmt.Println("feature importances: not available (deserialized model)")
		return
	}
	type fi struct {
		idx int
		v   float64
	}
	ranked := make([]fi, len(imp))
	for i, v := range imp {
		ranked[i] = fi{i, v}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].v > ranked[b].v })
	if *topK > len(ranked) {
		*topK = len(ranked)
	}
	fmt.Printf("top %d features by mean decrease in impurity:\n", *topK)
	for _, r := range ranked[:*topK] {
		name := fmt.Sprintf("feature[%d]", r.idx)
		if names != nil {
			name = names[r.idx]
		}
		fmt.Printf("  %-36s %6.2f %%\n", name, 100*r.v)
	}
}

func quickTrain(patientID string) (*forest.Forest, error) {
	p, err := chbmit.PatientByID(patientID)
	if err != nil {
		return nil, err
	}
	opts := pipeline.DefaultOptions()
	opts.CropDuration = 900
	opts.ForestCfg.NumTrees = 30
	session, err := pipeline.NewSession(p, opts)
	if err != nil {
		return nil, err
	}
	for ev := 1; ev <= 2 && ev <= len(p.Seizures); ev++ {
		rec, err := p.SeizureRecord(ev, 0)
		if err != nil {
			return nil, err
		}
		truth := rec.Seizures[0]
		lo := truth.Start - 400
		if lo < 0 {
			lo = 0
		}
		buf, err := rec.Slice(lo, lo+900)
		if err != nil {
			return nil, err
		}
		if _, err := session.ReportMissedSeizure(buf); err != nil {
			return nil, err
		}
	}
	return session.Detector(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
