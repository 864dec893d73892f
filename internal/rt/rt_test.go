package rt

import (
	"testing"
	"time"
)

// thresholdClassifier predicts true when x[0] > 0.5.
type thresholdClassifier struct{}

func (thresholdClassifier) Predict(x []float64) bool { return x[0] > 0.5 }

func fastCfg() Config {
	return Config{VoteWindow: 5, VotesToRaise: 3, Refractory: 30 * time.Second, Hop: time.Second}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.VoteWindow = 0
	if bad.Validate() == nil {
		t.Error("vote window 0 should fail")
	}
	bad = DefaultConfig()
	bad.VotesToRaise = 9
	if bad.Validate() == nil {
		t.Error("k > n should fail")
	}
	bad = DefaultConfig()
	bad.VotesToRaise = 0
	if bad.Validate() == nil {
		t.Error("k = 0 should fail")
	}
	bad = DefaultConfig()
	bad.Refractory = -time.Second
	if bad.Validate() == nil {
		t.Error("negative refractory should fail")
	}
	bad = DefaultConfig()
	bad.Hop = 0
	if bad.Validate() == nil {
		t.Error("zero hop should fail")
	}
}

func TestNewDetectorErrors(t *testing.T) {
	if _, err := NewDetector(nil, fastCfg()); err == nil {
		t.Error("nil classifier should fail")
	}
	bad := fastCfg()
	bad.VoteWindow = 0
	if _, err := NewDetector(thresholdClassifier{}, bad); err == nil {
		t.Error("bad config should fail")
	}
}

func TestSingleNoisyWindowDoesNotAlarm(t *testing.T) {
	d, err := NewDetector(thresholdClassifier{}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// One positive window surrounded by negatives: never 3-of-5.
	seq := []float64{0, 0, 1, 0, 0, 0, 0, 0}
	for _, v := range seq {
		if d.Push([]float64{v}) {
			t.Fatal("isolated positive window must not alarm")
		}
	}
	if len(d.Alarms()) != 0 {
		t.Errorf("alarms = %v", d.Alarms())
	}
}

func TestSustainedPositivesAlarmOnce(t *testing.T) {
	d, err := NewDetector(thresholdClassifier{}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 20; i++ {
		v := 0.0
		if i >= 5 && i < 15 {
			v = 1
		}
		if d.Push([]float64{v}) {
			fired++
		}
	}
	if fired != 1 {
		t.Errorf("sustained event should fire exactly once within refractory, got %d", fired)
	}
	alarms := d.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %v", alarms)
	}
	// 3-of-5 satisfied at the 3rd positive window: index 7 -> t = 7 s.
	if alarms[0].Time != 7 {
		t.Errorf("alarm at %g s, want 7 s", alarms[0].Time)
	}
}

func TestRefractorySuppressionAndRecovery(t *testing.T) {
	cfg := fastCfg()
	cfg.Refractory = 10 * time.Second
	d, err := NewDetector(thresholdClassifier{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	// Two bursts 20 s apart: both should alarm with a 10 s refractory.
	for i := 0; i < 40; i++ {
		v := 0.0
		if (i >= 2 && i < 8) || (i >= 28 && i < 34) {
			v = 1
		}
		if d.Push([]float64{v}) {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("two separated bursts should fire twice, got %d", fired)
	}
}

func TestPushPredictionEquivalent(t *testing.T) {
	a, _ := NewDetector(thresholdClassifier{}, fastCfg())
	b, _ := NewDetector(thresholdClassifier{}, fastCfg())
	seq := []float64{0, 1, 1, 1, 1, 0, 0, 1}
	for _, v := range seq {
		ra := a.Push([]float64{v})
		rb := b.PushPrediction(v > 0.5)
		if ra != rb {
			t.Fatal("Push and PushPrediction must agree")
		}
	}
}

func TestReset(t *testing.T) {
	d, _ := NewDetector(thresholdClassifier{}, fastCfg())
	for i := 0; i < 10; i++ {
		d.Push([]float64{1})
	}
	if len(d.Alarms()) == 0 {
		t.Fatal("expected an alarm before reset")
	}
	d.Reset()
	if len(d.Alarms()) != 0 {
		t.Error("reset should clear alarms")
	}
	// After reset the voter must again need 3 positives.
	if d.PushPrediction(true) || d.PushPrediction(true) {
		t.Error("alarm too early after reset")
	}
	if !d.PushPrediction(true) {
		t.Error("3rd positive after reset should alarm")
	}
}

func TestLatency(t *testing.T) {
	alarms := []Alarm{{Time: 100}, {Time: 200}}
	if got := Latency(alarms, 95); got != 5 {
		t.Errorf("latency = %g, want 5", got)
	}
	if got := Latency(alarms, 150); got != 50 {
		t.Errorf("latency = %g, want 50", got)
	}
	if got := Latency(alarms, 300); got != -1 {
		t.Errorf("latency past all alarms = %g, want -1", got)
	}
	if got := Latency(nil, 10); got != -1 {
		t.Errorf("no alarms should give -1")
	}
}
