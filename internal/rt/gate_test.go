package rt

import (
	"math/rand"
	"testing"

	"selflearn/internal/stats"
	"selflearn/internal/synth"
)

// refTwoStage is the pre-optimization two-stage gating rule, kept
// verbatim as the equivalence oracle: append-and-reslice history with a
// copy-and-sort stats.Median per window. The incremental medianRing
// must reproduce its trigger decisions bit for bit.
type refTwoStage struct {
	factor  float64
	history []float64
	maxHist int
}

func (t *refTwoStage) classify(ll float64) (trigger bool) {
	trigger = true
	if len(t.history) >= t.maxHist/2 {
		baseline := stats.Median(t.history)
		trigger = ll >= t.factor*baseline
	}
	if !trigger || len(t.history) < t.maxHist/2 {
		t.history = append(t.history, ll)
		if len(t.history) > t.maxHist {
			t.history = t.history[1:]
		}
	}
	return trigger
}

// TestMedianRingMatchesStatsMedian: the incremental median must be
// bit-identical to stats.Median over the ring's contents at every step,
// including duplicate values, evictions, and both parities of fill.
func TestMedianRingMatchesStatsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const capacity = 17
	m := newMedianRing(capacity)
	var window []float64
	for i := 0; i < 2000; i++ {
		// Coarse quantization forces duplicate values into the ring.
		x := float64(rng.Intn(40)) / 8
		m.Push(x)
		window = append(window, x)
		if len(window) > capacity {
			window = window[1:]
		}
		want := stats.Median(window)
		if got := m.Median(); got != want {
			t.Fatalf("step %d: incremental median %v, stats.Median %v", i, got, want)
		}
		if m.Len() != len(window) {
			t.Fatalf("step %d: Len %d, want %d", i, m.Len(), len(window))
		}
	}
}

// TestTwoStageEquivalence: the allocation-free gate must make the
// exact same trigger decisions as the historical copy-and-sort
// implementation over realistic EEG with seizures.
func TestTwoStageEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := 256.0
	n := 900 * int(fs)
	data := synth.Background(rng, n, fs, synth.DefaultBackground())
	if err := synth.AddSeizure(rng, data, 300*int(fs), 40*int(fs), fs, synth.DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	if err := synth.AddSeizure(rng, data, 600*int(fs), 25*int(fs), fs, synth.DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 120})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTwoStage{factor: 2.5, maxHist: 120}
	win, hop := 4*int(fs), int(fs)
	invoked := 0
	for start := 0; start+win <= n; start += hop {
		w := data[start : start+win]
		ran := g.Admit(BatchAmplitude(w, nil))
		wantRan := ref.classify(BatchAmplitude(w, nil))
		if ran != wantRan {
			t.Fatalf("window at %ds: optimized trigger %v, reference %v", start/int(fs), ran, wantRan)
		}
		if ran {
			invoked++
		}
	}
	if invoked == 0 {
		t.Fatal("gate never triggered — equivalence vacuous")
	}
}

// TestAmplitudeGateMatchesTwoStage: the standalone gate must reproduce
// the two-stage rule's trigger sequence exactly when fed the same
// amplitudes — the property the shard-side audit mirror depends on —
// while shipping well under half of the windows.
func TestAmplitudeGateMatchesTwoStage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fs := 128.0
	n := 600 * int(fs)
	data := synth.Background(rng, n, fs, synth.DefaultBackground())
	if err := synth.AddSeizure(rng, data, 200*int(fs), 30*int(fs), fs, synth.DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	ref := &refTwoStage{factor: 2.5, maxHist: 64}
	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 64})
	if err != nil {
		t.Fatal(err)
	}
	win, hop := 4*int(fs), int(fs)
	var windows, shipped int
	for start := 0; start+win <= n; start += hop {
		w := data[start : start+win]
		ran := ref.classify(BatchAmplitude(w, nil))
		ship := g.Admit(BatchAmplitude(w, nil))
		if ship != ran {
			t.Fatalf("window at %ds: gate %v, reference %v", start/int(fs), ship, ran)
		}
		windows++
		if ship {
			shipped++
		}
	}
	if shipped == windows {
		t.Fatal("gate never suppressed — test signal too hot")
	}
	if got := float64(shipped) / float64(windows); got > 0.4 {
		t.Fatalf("uplink duty cycle %v, want well below 1", got)
	}
}

// TestGateValidation pins the GateConfig contract.
func TestGateValidation(t *testing.T) {
	if _, err := NewAmplitudeGate(GateConfig{Factor: 1, HistoryWindows: 64}); err == nil {
		t.Error("factor <= 1 should fail")
	}
	if _, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 4}); err == nil {
		t.Error("tiny history should fail")
	}
}

// TestTwoStageClassifyZeroAlloc: the per-window path — amplitude,
// baseline maintenance, and gate bookkeeping — must not allocate, or a
// day of 1 Hz windows churns 86k garbage objects per patient. It runs
// the gate over 4 s analysis windows and over 1 s two-channel batches.
func TestTwoStageClassifyZeroAlloc(t *testing.T) {
	window, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 120})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	fs := 256.0
	data := synth.Background(rng, 300*int(fs), fs, synth.DefaultBackground())
	win, hop := 4*int(fs), int(fs)
	starts := make([]int, 0, 256)
	for start := 0; start+win <= len(data); start += hop {
		starts = append(starts, start)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s := starts[i%len(starts)]
		window.Admit(BatchAmplitude(data[s:s+win], nil))
		i++
	})
	if allocs != 0 {
		t.Fatalf("AmplitudeGate.Admit allocates %v objects per analysis window, want 0", allocs)
	}

	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 64})
	if err != nil {
		t.Fatal(err)
	}
	i = 0
	allocs = testing.AllocsPerRun(200, func() {
		s := starts[i%len(starts)]
		g.Admit(BatchAmplitude(data[s:s+hop], data[s:s+hop]))
		i++
	})
	if allocs != 0 {
		t.Fatalf("AmplitudeGate.Admit allocates %v objects per window, want 0", allocs)
	}
}

func TestTwoStageGatesBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := 256.0
	n := 600 * int(fs)
	bg := synth.Background(rng, n, fs, synth.DefaultBackground())
	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 120})
	if err != nil {
		t.Fatal(err)
	}
	win := 4 * int(fs)
	hop := int(fs)
	var windows, invoked int
	for start := 0; start+win <= n; start += hop {
		windows++
		if g.Admit(BatchAmplitude(bg[start:start+win], nil)) {
			invoked++
		}
	}
	// After warm-up, seizure-free EEG should rarely trip the pre-screen.
	if f := float64(invoked) / float64(windows); f > 0.25 {
		t.Errorf("invocation fraction %g on pure background, want low", f)
	}
}

func TestTwoStageTriggersOnSeizure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fs := 256.0
	n := 600 * int(fs)
	data := synth.Background(rng, n, fs, synth.DefaultBackground())
	if err := synth.AddSeizure(rng, data, 300*int(fs), 60*int(fs), fs, synth.DefaultSeizure()); err != nil {
		t.Fatal(err)
	}
	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 120})
	if err != nil {
		t.Fatal(err)
	}
	win := 4 * int(fs)
	hop := int(fs)
	var windows, invoked, ictalInvoked, ictalTotal int
	for start := 0; start+win <= n; start += hop {
		sec := start / int(fs)
		ran := g.Admit(BatchAmplitude(data[start:start+win], nil))
		windows++
		if ran {
			invoked++
		}
		if sec >= 305 && sec < 350 {
			ictalTotal++
			if ran {
				ictalInvoked++
			}
		}
	}
	if ictalTotal == 0 {
		t.Fatal("no ictal windows")
	}
	// The expensive stage must see (nearly) every ictal window: energy
	// savings must not cost sensitivity.
	if float64(ictalInvoked)/float64(ictalTotal) < 0.95 {
		t.Errorf("pre-screen suppressed %d/%d ictal windows", ictalTotal-ictalInvoked, ictalTotal)
	}
	// Overall duty shrinks substantially versus always-on.
	if f := float64(invoked) / float64(windows); f > 0.4 {
		t.Errorf("overall invocation fraction %g, want well below 1", f)
	}
}

func TestTwoStageColdStartInvokes(t *testing.T) {
	g, err := NewAmplitudeGate(GateConfig{Factor: 2.5, HistoryWindows: 60})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i % 7)
	}
	// First windows (no baseline yet) must run stage 2 — cold-start
	// safety.
	for i := 0; i < 10; i++ {
		if !g.Admit(BatchAmplitude(w, nil)) {
			t.Fatal("cold-start window skipped the classifier")
		}
	}
}
