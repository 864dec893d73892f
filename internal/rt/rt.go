// Package rt provides the real-time alarm layer that sits on top of the
// per-window classifier on the wearable: streaming prediction smoothing,
// alarm debouncing (k-of-n voting) and refractory hold-off, so a single
// noisy window neither raises nor suppresses a caregiver alert. This is
// the postprocessing stage real-time detectors such as e-Glass apply
// before notifying family and caregivers.
package rt

import (
	"fmt"
	"time"
)

// Classifier is the minimal window-classifier interface the alarm layer
// consumes; internal/ml/forest.FlatForest satisfies it.
type Classifier interface {
	Predict(x []float64) bool
}

// Config controls alarm smoothing.
type Config struct {
	// VoteWindow is the number of most recent windows considered (n in
	// k-of-n voting).
	VoteWindow int
	// VotesToRaise is the number of positive windows within VoteWindow
	// required to raise an alarm (k).
	VotesToRaise int
	// Refractory is the hold-off after an alarm during which no new
	// alarm is raised (seizures are single events; repeated alerts for
	// one seizure help nobody).
	Refractory time.Duration
	// Hop is the time between consecutive windows (1 s in the paper's
	// configuration).
	Hop time.Duration
}

// DefaultConfig returns a 3-of-5 voter with a two-minute refractory
// period at the paper's 1 s hop.
func DefaultConfig() Config {
	return Config{VoteWindow: 5, VotesToRaise: 3, Refractory: 2 * time.Minute, Hop: time.Second}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.VoteWindow < 1 {
		return fmt.Errorf("rt: vote window %d < 1", c.VoteWindow)
	}
	if c.VotesToRaise < 1 || c.VotesToRaise > c.VoteWindow {
		return fmt.Errorf("rt: votes-to-raise %d outside [1, %d]", c.VotesToRaise, c.VoteWindow)
	}
	if c.Refractory < 0 {
		return fmt.Errorf("rt: negative refractory %v", c.Refractory)
	}
	if c.Hop <= 0 {
		return fmt.Errorf("rt: non-positive hop %v", c.Hop)
	}
	return nil
}

// Alarm is one raised alert.
type Alarm struct {
	// Time is the stream time in seconds at which the alarm fired.
	Time float64
}

// Detector is a streaming alarm generator.
type Detector struct {
	cfg        Config
	clf        Classifier
	ring       []bool
	pos        int
	votes      int
	filled     int
	windowIdx  int
	lastAlarm  float64
	hasAlarmed bool
	alarms     []Alarm
}

// NewDetector wraps a window classifier in the alarm layer.
func NewDetector(clf Classifier, cfg Config) (*Detector, error) {
	if clf == nil {
		return nil, fmt.Errorf("rt: nil classifier")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, clf: clf, ring: make([]bool, cfg.VoteWindow)}, nil
}

// Push feeds the feature vector of the next window and returns whether an
// alarm fired on this window.
func (d *Detector) Push(x []float64) bool {
	return d.PushPrediction(d.clf.Predict(x))
}

// PushPrediction feeds an already-computed window prediction (useful when
// predictions come from PredictBatch).
//
//selflearn:hotpath
func (d *Detector) PushPrediction(pred bool) bool {
	// Update ring and running vote count.
	if d.filled == len(d.ring) {
		if d.ring[d.pos] {
			d.votes--
		}
	} else {
		d.filled++
	}
	d.ring[d.pos] = pred
	if pred {
		d.votes++
	}
	d.pos = (d.pos + 1) % len(d.ring)

	now := float64(d.windowIdx) * d.cfg.Hop.Seconds()
	d.windowIdx++

	if d.votes < d.cfg.VotesToRaise {
		return false
	}
	if d.hasAlarmed && now-d.lastAlarm < d.cfg.Refractory.Seconds() {
		return false
	}
	d.lastAlarm = now
	d.hasAlarmed = true
	d.alarms = append(d.alarms, Alarm{Time: now})
	return true
}

// Alarms returns all alarms raised so far.
func (d *Detector) Alarms() []Alarm { return append([]Alarm(nil), d.alarms...) }

// LastAlarmTime returns the stream time in seconds of the most recent
// alarm. It is only meaningful immediately after Push/PushPrediction
// returned true; callers that need the full log use Alarms.
//
//selflearn:hotpath
func (d *Detector) LastAlarmTime() float64 { return d.lastAlarm }

// Reset clears the stream state (ring, refractory, alarm log).
func (d *Detector) Reset() {
	for i := range d.ring {
		d.ring[i] = false
	}
	d.pos, d.votes, d.filled, d.windowIdx = 0, 0, 0, 0
	d.hasAlarmed = false
	d.alarms = nil
}

// Latency returns the detection latency in seconds of the first alarm
// relative to a true onset time, or -1 when no alarm fired at or after
// the onset.
func Latency(alarms []Alarm, onset float64) float64 {
	for _, a := range alarms {
		if a.Time >= onset {
			return a.Time - onset
		}
	}
	return -1
}
