package eval

import (
	"sort"

	"selflearn/internal/signal"
)

// DetectionMetrics summarises event-level detection over one or more
// streams: the operating-point numbers a serving deployment is judged
// by (did the alarms catch the seizures, and how often did they cry
// wolf), as opposed to the labeling metrics δ/δ_norm above.
type DetectionMetrics struct {
	// Events is the number of ground-truth seizure events scored.
	Events int
	// Detected is how many of them an alarm matched (at most one alarm
	// is consumed per event).
	Detected int
	// FalseAlarms is the number of alarms that matched no event.
	FalseAlarms int
	// Sensitivity is Detected/Events. With zero events there is nothing
	// to miss, so it is 1 (vacuously perfect), never NaN.
	Sensitivity float64
	// FalseAlarmsPerHour is FalseAlarms normalized by the scored stream
	// duration. A zero or negative duration yields 0, never Inf or NaN —
	// degenerate inputs must stay comparable and serializable.
	FalseAlarmsPerHour float64
	// Hours is the scored stream duration in hours.
	Hours float64
}

// ScoreDetections scores a stream of alarm times (seconds) against
// ground-truth seizure intervals. An alarm counts as detecting an event
// when it falls within [start−tolerance, end+tolerance], and each event
// consumes at most one alarm, greedily in time order. duration is the
// scored stream length in seconds.
func ScoreDetections(alarms []float64, events []signal.Interval, tolerance, duration float64) DetectionMetrics {
	m := DetectionMetrics{Events: len(events)}
	sorted := append([]float64(nil), alarms...)
	sort.Float64s(sorted)
	used := make([]bool, len(sorted))
	for _, ev := range events {
		for i, a := range sorted {
			if used[i] {
				continue
			}
			if a >= ev.Start-tolerance && a <= ev.End+tolerance {
				m.Detected++
				used[i] = true
				break
			}
		}
	}
	for i := range sorted {
		if !used[i] {
			m.FalseAlarms++
		}
	}
	m.Sensitivity = 1
	if m.Events > 0 {
		m.Sensitivity = float64(m.Detected) / float64(m.Events)
	}
	if duration > 0 {
		m.Hours = duration / 3600
		m.FalseAlarmsPerHour = float64(m.FalseAlarms) / m.Hours
	}
	return m
}

// Merge combines per-stream metrics into one operating point: counts
// add, and the rates are recomputed over the pooled totals.
func Merge(parts ...DetectionMetrics) DetectionMetrics {
	var m DetectionMetrics
	for _, p := range parts {
		m.Events += p.Events
		m.Detected += p.Detected
		m.FalseAlarms += p.FalseAlarms
		m.Hours += p.Hours
	}
	m.Sensitivity = 1
	if m.Events > 0 {
		m.Sensitivity = float64(m.Detected) / float64(m.Events)
	}
	if m.Hours > 0 {
		m.FalseAlarmsPerHour = float64(m.FalseAlarms) / m.Hours
	}
	return m
}
