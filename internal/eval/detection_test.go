package eval

import (
	"math"
	"testing"

	"selflearn/internal/signal"
)

func assertFinite(t *testing.T, m DetectionMetrics) {
	t.Helper()
	for name, v := range map[string]float64{
		"sensitivity": m.Sensitivity,
		"fa/h":        m.FalseAlarmsPerHour,
		"hours":       m.Hours,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g, want finite", name, v)
		}
	}
}

func TestScoreDetections(t *testing.T) {
	events := []signal.Interval{{Start: 100, End: 120}, {Start: 300, End: 320}}
	// 95 lands in the first event's tolerance window; 500 matches nothing.
	m := ScoreDetections([]float64{500, 95}, events, 30, 3600)
	if m.Events != 2 || m.Detected != 1 || m.FalseAlarms != 1 {
		t.Fatalf("got %+v, want 1/2 detected with 1 false alarm", m)
	}
	if m.Sensitivity != 0.5 || m.FalseAlarmsPerHour != 1 || m.Hours != 1 {
		t.Fatalf("rates %+v, want sensitivity 0.5, 1 FA/h over 1 h", m)
	}

	// Each event consumes at most one alarm: the second in-window alarm
	// counts as false.
	m = ScoreDetections([]float64{105, 110}, events[:1], 30, 3600)
	if m.Detected != 1 || m.FalseAlarms != 1 {
		t.Fatalf("double-counted alarms: %+v", m)
	}

	// One alarm cannot count for two overlapping events.
	m = ScoreDetections([]float64{100}, []signal.Interval{{Start: 90, End: 110}, {Start: 95, End: 120}}, 0, 3600)
	if m.Detected != 1 || m.FalseAlarms != 0 {
		t.Fatalf("one alarm matched two events: %+v", m)
	}
}

// TestScoreDetectionsDegenerate: empty alarm lists, zero events and
// zero or negative durations must never produce NaN or Inf — degenerate
// rows still have to serialize and compare.
func TestScoreDetectionsDegenerate(t *testing.T) {
	cases := []struct {
		name     string
		alarms   []float64
		events   []signal.Interval
		duration float64
		wantSens float64
		wantFAH  float64
	}{
		{"all-empty", nil, nil, 0, 1, 0},
		{"no-events-with-alarms", []float64{10, 20}, nil, 3600, 1, 2},
		{"zero-duration", []float64{10}, []signal.Interval{{Start: 5, End: 15}}, 0, 1, 0},
		{"negative-duration", []float64{999}, nil, -60, 1, 0},
		{"missed-everything", nil, []signal.Interval{{Start: 5, End: 15}}, 3600, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ScoreDetections(tc.alarms, tc.events, 30, tc.duration)
			assertFinite(t, m)
			if m.Sensitivity != tc.wantSens {
				t.Errorf("sensitivity = %g, want %g", m.Sensitivity, tc.wantSens)
			}
			if m.FalseAlarmsPerHour != tc.wantFAH {
				t.Errorf("FA/h = %g, want %g", m.FalseAlarmsPerHour, tc.wantFAH)
			}
		})
	}
}

func TestMerge(t *testing.T) {
	a := ScoreDetections([]float64{95}, []signal.Interval{{Start: 100, End: 120}}, 30, 1800)
	b := ScoreDetections([]float64{999}, []signal.Interval{{Start: 100, End: 120}}, 30, 1800)
	m := Merge(a, b)
	if m.Events != 2 || m.Detected != 1 || m.FalseAlarms != 1 || m.Hours != 1 {
		t.Fatalf("pooled counts wrong: %+v", m)
	}
	// Rates recomputed over the pool, not averaged.
	if m.Sensitivity != 0.5 || m.FalseAlarmsPerHour != 1 {
		t.Fatalf("pooled rates wrong: %+v", m)
	}

	// Degenerate merges stay finite.
	assertFinite(t, Merge())
	empty := Merge(DetectionMetrics{}, DetectionMetrics{})
	assertFinite(t, empty)
	if empty.Sensitivity != 1 || empty.FalseAlarmsPerHour != 0 {
		t.Fatalf("empty merge: %+v", empty)
	}
}
