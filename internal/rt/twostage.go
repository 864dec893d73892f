package rt

import "fmt"

// TwoStage implements the self-aware detection scheme of the paper's
// reference [24] (Forooghifar, Aminifar, Atienza): a nearly-free
// time-domain pre-screen (windowed mean absolute amplitude — one add per
// sample, no multiplies) gates the expensive random-forest stage,
// cutting the detector's CPU duty cycle — and therefore the dominant
// term of the Fig. 5 energy budget — during the overwhelmingly
// seizure-free hours. Ictal discharges run several times the interictal
// amplitude, so the gate is triggered by exactly the windows the
// classifier must see.
//
// The pre-screen is gate.go's AmplitudeGate: its adaptive baseline is a
// running median over recent interictal amplitudes, maintained
// incrementally instead of re-sorting the history per window, so
// Classify is allocation-free and O(log h + h move) per window, with a
// median bit-identical to stats.Median over the same history.
type TwoStage struct {
	clf  Classifier
	gate *AmplitudeGate
}

// NewTwoStage wraps a window classifier with an amplitude pre-screen.
// factor is the trigger multiple over the running median window
// amplitude (2–3 is typical: ictal amplitude is several times
// interictal).
func NewTwoStage(clf Classifier, factor float64, historyWindows int) (*TwoStage, error) {
	if clf == nil {
		return nil, fmt.Errorf("rt: nil classifier")
	}
	gate, err := NewAmplitudeGate(GateConfig{Factor: factor, HistoryWindows: historyWindows})
	if err != nil {
		return nil, err
	}
	return &TwoStage{clf: clf, gate: gate}, nil
}

// Classify processes one analysis window: rawWindow is the time-domain
// signal the pre-screen sees (one channel suffices), featureRow the
// feature vector for the expensive stage. It returns the prediction and
// whether the expensive stage actually ran.
//
//selflearn:hotpath
func (t *TwoStage) Classify(rawWindow []float64, featureRow []float64) (pred, ranStage2 bool) {
	if !t.gate.Admit(BatchAmplitude(rawWindow, nil)) {
		return false, false
	}
	return t.clf.Predict(featureRow), true
}

// InvocationFraction returns the fraction of windows that reached the
// expensive stage — the factor by which the detector's 75 % duty cycle
// (and hence its 85.7 % energy share) shrinks.
func (t *TwoStage) InvocationFraction() float64 {
	if t.gate.Windows() == 0 {
		return 0
	}
	return float64(t.gate.Shipped()) / float64(t.gate.Windows())
}

// Reset clears the adaptive state and counters.
func (t *TwoStage) Reset() { t.gate.Reset() }
