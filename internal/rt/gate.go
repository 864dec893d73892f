package rt

import (
	"fmt"
	"math"
)

// This file holds the amplitude gate of the two-stage scheme (the
// duty-cycle reducer of the paper's reference [24]) as a free-standing,
// allocation-free component, so the exact same stage-1 decision
// procedure runs in two places: "on device" in a serving client that
// suppresses uplink traffic (serve.PrefilterClient), and mirrored on
// the shard that audits the client's suppression. Keeping one
// implementation is what makes the audit meaningful — the shard
// re-evaluates the declared gate, not an approximation of it.

// GateConfig is the serializable parameterization of the amplitude
// gate — what a stream declares to its shard so the shard can mirror
// the stage-1 decision.
type GateConfig struct {
	// Factor is the trigger multiple over the running median window
	// amplitude (2–3 is typical: ictal amplitude is several times
	// interictal).
	Factor float64 `json:"factor"`
	// HistoryWindows bounds the adaptive-baseline history. The gate is
	// cold (always triggers) until half of it has filled.
	HistoryWindows int `json:"history_windows"`
}

// Validate checks the gate parameters.
func (c GateConfig) Validate() error {
	if c.Factor <= 1 {
		return fmt.Errorf("rt: trigger factor %g must exceed 1", c.Factor)
	}
	if c.HistoryWindows < 8 {
		return fmt.Errorf("rt: history of %d windows too short", c.HistoryWindows)
	}
	return nil
}

// medianRing is a fixed-capacity FIFO of float64 samples that maintains
// its contents in sorted order incrementally, so the running median
// costs one binary search and one memmove per push instead of the
// copy-and-sort of stats.Median — and, critically for the hot path,
// zero allocations after construction. Median is bit-identical to
// stats.Median over the same contents: linear interpolation between the
// two central order statistics with frac = 0.5 exactly.
type medianRing struct {
	ring   []float64 // insertion-order ring, oldest at pos when full
	sorted []float64 // same values, ascending
	pos    int       // next ring slot to overwrite
	n      int       // current fill, ≤ cap
}

func newMedianRing(capacity int) *medianRing {
	return &medianRing{
		ring:   make([]float64, capacity),
		sorted: make([]float64, 0, capacity),
	}
}

// search returns the first index in sorted whose value is >= x — the
// insertion point keeping sorted ascending. Hand-rolled (rather than
// sort.SearchFloat64s) to stay closure-free on the hot path.
func (m *medianRing) search(x float64) int {
	lo, hi := 0, len(m.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Push appends x, evicting the oldest value once the ring is full.
//
//selflearn:hotpath
func (m *medianRing) Push(x float64) {
	if m.n == len(m.ring) {
		// Evict the oldest value from the sorted view. Duplicates are
		// interchangeable, so removing the first occurrence is exact.
		old := m.ring[m.pos]
		i := m.search(old)
		copy(m.sorted[i:], m.sorted[i+1:])
		m.sorted = m.sorted[:m.n-1]
		m.n--
	}
	i := m.search(x)
	m.sorted = m.sorted[:m.n+1]
	copy(m.sorted[i+1:], m.sorted[i:m.n])
	m.sorted[i] = x
	m.ring[m.pos] = x
	m.pos++
	if m.pos == len(m.ring) {
		m.pos = 0
	}
	m.n++
}

// Len returns the current number of held samples.
func (m *medianRing) Len() int { return m.n }

// Median returns the running median, bit-identical to
// stats.Median(contents): the middle order statistic for odd fill, and
// s[lo]*0.5 + s[hi]*0.5 (linear interpolation with frac exactly 0.5)
// for even fill. Zero fill returns 0 — callers gate on Len first.
//
//selflearn:hotpath
func (m *medianRing) Median() float64 {
	if m.n == 0 {
		return 0
	}
	if m.n%2 == 1 {
		return m.sorted[m.n/2]
	}
	lo := m.n/2 - 1
	return m.sorted[lo]*0.5 + m.sorted[lo+1]*0.5
}

// AmplitudeGate is the stage-1 amplitude pre-screen as a standalone
// decision procedure over per-window mean absolute amplitudes — the
// one gating rule the prefilter client and the shard audit both run:
// trigger (ship the window) while the baseline is cold or when the
// amplitude reaches Factor times the running median of recent
// non-triggering windows; only non-triggering windows feed the
// baseline, so a long seizure does not drag the threshold up after
// itself.
type AmplitudeGate struct {
	cfg     GateConfig
	history *medianRing
}

// NewAmplitudeGate builds a gate from cfg. All state is preallocated:
// the per-window path never allocates.
func NewAmplitudeGate(cfg GateConfig) (*AmplitudeGate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AmplitudeGate{cfg: cfg, history: newMedianRing(cfg.HistoryWindows)}, nil
}

// Threshold returns the current trigger level (Factor × running median)
// and whether the baseline is warm enough to gate at all. While cold,
// every window triggers (cold-start safety: never miss a seizure to
// save uplink or classifier time).
func (g *AmplitudeGate) Threshold() (float64, bool) {
	if g.history.Len() < g.cfg.HistoryWindows/2 {
		return 0, false
	}
	return g.cfg.Factor * g.history.Median(), true
}

// Admit processes one window's mean absolute amplitude and reports
// whether the window must ship upstream (trigger).
//
//selflearn:hotpath
func (g *AmplitudeGate) Admit(amp float64) bool {
	cold := g.history.Len() < g.cfg.HistoryWindows/2
	trigger := true
	if !cold {
		trigger = amp >= g.cfg.Factor*g.history.Median()
	}
	if !trigger || cold {
		g.history.Push(amp)
	}
	return trigger
}

// BatchAmplitude is the mean absolute amplitude over a two-channel
// sample batch — the per-second statistic the client-side gate runs on.
// Empty input returns 0.
//
//selflearn:hotpath
func BatchAmplitude(c0, c1 []float64) float64 {
	n := len(c0) + len(c1)
	if n == 0 {
		return 0
	}
	var s float64
	for _, v := range c0 {
		s += magnitude(v)
	}
	for _, v := range c1 {
		s += magnitude(v)
	}
	return s / float64(n)
}

// magnitude is |v| without a branch on the sign, which EEG flips at
// random. A NaN passes through with its sign, as it did when the sum
// negated only samples below zero; and the sum starts at +0, so −0 and
// +0 add the same.
func magnitude(v float64) float64 {
	if v != v {
		return v
	}
	return math.Abs(v)
}
