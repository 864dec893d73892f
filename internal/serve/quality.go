package serve

import "selflearn/internal/signal"

// qualityOK reports whether a batch passes the quality gate. An
// unassessable channel (empty, bad rate) is not evidence of garbage:
// the gate fails open so a gate bug never silences a patient.
func qualityOK(cfg *signal.QualityConfig, c0, c1 []float64, fs float64) bool {
	for _, ch := range [][]float64{c0, c1} {
		if r, err := signal.AssessChannel(ch, fs, *cfg); err == nil && !r.OK {
			return false
		}
	}
	return true
}
