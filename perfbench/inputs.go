package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/serve"
	"selflearn/internal/synth"
)

// lsb is the ADC step every generated sample sits on: integer counts
// times a power of two, so wire.Encoder.Push can take the lossless PushQ
// layout on every batch.
const lsb = 1.0 / 8

// baseModels is how many distinct forests back the per-patient
// checkpoints.
const baseModels = 8

// inputs are everything the generator replays: a small pool of
// recordings and, per patient, which recording it streams and from what
// offset. Patient p's stream second s is second (offset+s) mod secs of
// its recording, so the pool stays a few MB however many patients or
// seconds a run streams.
type inputs struct {
	w       workload
	fs      int // samples per second
	secs    int // seconds per pooled recording
	recs    [][2][]float64
	ids     []string
	index   map[string]int
	rec     []int
	offset  []int
	ckptDir string // per-patient checkpoints (ward and edge workloads)
}

func buildInputs(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, fs: int(w.rate), index: make(map[string]int, w.patients)}
	var sparse, dense int
	if w.learn {
		// One 40 s seizure per 15 minutes: the buffered 15 minutes hold
		// one, which the labeler must find.
		in.secs, sparse = 900, 4
		for i := 0; i < sparse; i++ {
			ev := synth.SeizureEvent{Start: float64(150 + 150*i), Duration: 40, Config: synth.DefaultSeizure()}
			if err := in.add(rng.Int63(), []synth.SeizureEvent{ev}); err != nil {
				return nil, err
			}
		}
	} else {
		// Sparse recordings hold one 30 s seizure in five minutes; dense
		// ones a 20 s seizure every 30 s, out of phase with each other.
		in.secs, sparse, dense = 300, 3, 2
		for i := 0; i < sparse; i++ {
			ev := synth.SeizureEvent{Start: float64(40 + 80*i), Duration: 30, Config: synth.DefaultSeizure()}
			if err := in.add(rng.Int63(), []synth.SeizureEvent{ev}); err != nil {
				return nil, err
			}
		}
		for i := 0; i < dense; i++ {
			var evs []synth.SeizureEvent
			for t := 2 + 15*i; t+20 <= in.secs; t += 30 {
				evs = append(evs, synth.SeizureEvent{Start: float64(t), Duration: 20, Config: synth.DefaultSeizure()})
			}
			if err := in.add(rng.Int63(), evs); err != nil {
				return nil, err
			}
		}
	}
	// Which recording each patient streams, and from where, is fixed:
	// the seed varies only the signal, so the share of ictal seconds —
	// and with it alarms, shipped seconds and feature cost — is the same
	// for every seed.
	for p := 0; p < w.patients; p++ {
		id := fmt.Sprintf("p%04d", p)
		rec := p % sparse
		if w.sentinelEvery > 0 && p%w.sentinelEvery == 0 {
			rec = sparse + (p/w.sentinelEvery)%dense
		}
		in.ids = append(in.ids, id)
		in.index[id] = p
		in.rec = append(in.rec, rec)
		in.offset = append(in.offset, p*97%in.secs)
	}
	return in, nil
}

// add renders one pooled recording on the ADC grid.
func (in *inputs) add(seed int64, seizures []synth.SeizureEvent) error {
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID:  "pool",
		Seed:       seed,
		Duration:   float64(in.secs),
		SampleRate: in.w.rate,
		Background: synth.DefaultBackground(),
		Seizures:   seizures,
	})
	if err != nil {
		return err
	}
	onGrid(rec.Data[0])
	onGrid(rec.Data[1])
	in.recs = append(in.recs, [2][]float64{rec.Data[0], rec.Data[1]})
	return nil
}

// onGrid rounds every sample to a whole number of ADC steps. Converting
// through an integer keeps zero positive: math.Round(x/lsb)*lsb leaves -0
// samples, which fail PushQ's bitwise gate and fall back to float frames.
func onGrid(xs []float64) {
	for i, x := range xs {
		xs[i] = float64(int64(math.Round(x/lsb))) * lsb
	}
}

// second returns patient p's stream second s as views into the pool.
func (in *inputs) second(p, s int) (c0, c1 []float64) {
	i := (in.offset[p] + s) % in.secs
	r := in.recs[in.rec[p]]
	lo, hi := i*in.fs, (i+1)*in.fs
	return r[0][lo:hi], r[1][lo:hi]
}

// writeCheckpoints trains baseModels forests on labeled recordings and
// gives every patient its own checkpoint file in dir. Each patient loads
// its own copy, so the serving dispatcher sees one model pointer per
// patient, as with personalised detectors. The forests do not depend on
// the run's seed: a forest's depth sets its scoring cost, and forests
// trained per seed moved CPU per patient-second by several per cent from
// one seed to the next.
func writeCheckpoints(in *inputs, dir string) error {
	store, err := serve.NewFileStore(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(0x6b7d))
	bases := make([][]byte, baseModels)
	for k := range bases {
		var evs []synth.SeizureEvent
		for _, start := range []float64{40, 140, 240} {
			evs = append(evs, synth.SeizureEvent{Start: start, Duration: 25, Config: synth.DefaultSeizure()})
		}
		rec, err := synth.Generate(synth.RecordConfig{
			PatientID:  "train",
			Seed:       rng.Int63(),
			Duration:   300,
			SampleRate: in.w.rate,
			Background: synth.DefaultBackground(),
			Seizures:   evs,
		})
		if err != nil {
			return err
		}
		m, err := features.Extract10(rec, features.DefaultConfig())
		if err != nil {
			return err
		}
		cfg := forest.DefaultConfig()
		cfg.Seed = rng.Int63()
		f, err := forest.Train(m.Rows, features.Labels(m, rec.Seizures), cfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("base-%d", k)
		if err := store.SaveVersion(name, f.Flatten(), 1); err != nil {
			return err
		}
		if bases[k], err = os.ReadFile(store.PathFor(name)); err != nil {
			return err
		}
		if err := os.Remove(store.PathFor(name)); err != nil {
			return err
		}
	}
	for p, id := range in.ids {
		if err := os.WriteFile(store.PathFor(id), bases[p%baseModels], 0o644); err != nil {
			return err
		}
	}
	return nil
}
