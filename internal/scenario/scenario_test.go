package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"selflearn/internal/fault"
	"selflearn/internal/signal"
)

// runLocal builds the workload and replays it against a fresh
// in-process serve.Server configured from the spec.
func runLocal(spec Spec) (*Result, error) {
	w, err := Build(spec)
	if err != nil {
		return nil, err
	}
	c := NewCollector()
	srv, err := NewLocalServer(w, c)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return w.Run(srv, c)
}

// TestScenarioMatrix replays every pinned scenario twice and demands
// bit-identical eval rows — the determinism contract cmd/loadgen and
// the docs advertise — then cross-checks the rows against each other:
// the prefilter must be a no-op on clean and benign signal, must
// reject garbage on the adversarial arms, and churn must not change
// serving outcomes.
func TestScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix replay in -short mode")
	}
	rows := map[string]*Result{}
	for _, spec := range Matrix() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			r1, err := runLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := runLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same seed, different rows:\n  %+v\n  %+v", r1, r2)
			}
			rows[spec.Name] = r1
		})
	}
	if t.Failed() || len(rows) != len(Matrix()) {
		// Cross-checks need every arm; a -run filter selecting a subset
		// still pins determinism for the arms it ran.
		return
	}

	clean := rows["clean-replay"]
	// 420 s × 2 patients, nothing rejected: (420−3) windows each.
	if clean.QualityRejected != 0 || clean.Windows != 2*(420-3) {
		t.Errorf("clean-replay: rejected %d windows %d, want 0 / %d", clean.QualityRejected, clean.Windows, 2*(420-3))
	}
	if clean.Retrains != 2 {
		t.Errorf("clean-replay retrains = %d, want 2", clean.Retrains)
	}
	if clean.Detected == 0 {
		t.Errorf("clean-replay detected no seizures: %+v", clean)
	}

	// The prefilter must not perturb detection on clean signal: the
	// no-prefilter control arm (same seed) yields the same outcomes.
	ctrl := rows["clean-replay-nofilter"]
	if ctrl.Windows != clean.Windows || ctrl.Alarms != clean.Alarms ||
		ctrl.Detected != clean.Detected || ctrl.FalseAlarms != clean.FalseAlarms ||
		ctrl.Sensitivity != clean.Sensitivity {
		t.Errorf("prefilter changed clean-signal outcomes:\n  with:    %+v\n  without: %+v", clean, ctrl)
	}

	// Benign physiological artifacts must pass the quality gate.
	if r := rows["benign-artifacts"]; r.QualityRejected != 0 {
		t.Errorf("benign-artifacts: %d batches rejected, want 0", r.QualityRejected)
	}

	// Adversarial contamination must be rejected — and the seizures
	// around it still served.
	for _, name := range []string{"artifact-burst", "electrode-dropout", "artifact-dropout"} {
		r := rows[name]
		if r.QualityRejected == 0 {
			t.Errorf("%s: no quality rejections", name)
		}
		if r.Windows == 0 {
			t.Errorf("%s: no windows served", name)
		}
		if r.Windows+r.QualityRejected*1 > uint64(r.StreamSeconds) {
			t.Errorf("%s: windows %d + rejects %d exceed %g stream seconds", name, r.Windows, r.QualityRejected, r.StreamSeconds)
		}
	}
	// Dropout rejections are exactly countable: 3 dropouts × 10 flat
	// seconds × 2 patients.
	if r := rows["electrode-dropout"]; r.QualityRejected != 60 {
		t.Errorf("electrode-dropout rejected %d batches, want 60", r.QualityRejected)
	}

	// Handle churn must not change what the server computes.
	if r := rows["patient-churn"]; r.Windows != 2*(420-3) || r.Retrains != 2 {
		t.Errorf("patient-churn: windows %d retrains %d, want %d / 2", r.Windows, r.Retrains, 2*(420-3))
	}

	// Seizure cluster: 5 seizures, first consumed by training, 4 scored
	// per patient.
	if r := rows["seizure-cluster"]; r.Events != 8 {
		t.Errorf("seizure-cluster scored %d events, want 8", r.Events)
	}

	// Catalog replay: two 180 s crops per patient.
	if r := rows["chbmit-replay"]; r.Source != "chbmit" || r.Windows != 2*(360-3) {
		t.Errorf("chbmit-replay: source %q windows %d, want chbmit / %d", r.Source, r.Windows, 2*(360-3))
	}

	// The uplink pair: the stage-1 prefilter must not change
	// event-level detection on the same signal, while cutting uplink
	// bytes by at least the 10x CI gates on.
	pfOff, pfOn := rows["prefilter-off"], rows["prefilter-uplink"]
	if pfOn.Detected != pfOff.Detected || pfOn.Events != pfOff.Events {
		t.Errorf("prefilter changed detection:\n  on:  %+v\n  off: %+v", pfOn, pfOff)
	}
	if pfOn.UplinkBytes == 0 || pfOff.UplinkBytes < 10*pfOn.UplinkBytes {
		t.Errorf("uplink reduction below 10x: %d vs %d bytes", pfOff.UplinkBytes, pfOn.UplinkBytes)
	}
	if pfOn.SuppressedWindows == 0 || pfOn.AuditSamples == 0 {
		t.Errorf("prefilter-uplink: suppressed %d, audit samples %d, want both nonzero", pfOn.SuppressedWindows, pfOn.AuditSamples)
	}
	if pfOn.DriftEvents != 0 {
		t.Errorf("well-tuned gate fired drift: %+v", pfOn)
	}
	if pfOff.SuppressedWindows != 0 || pfOff.AuditSamples != 0 || pfOff.UplinkBytes == 0 {
		t.Errorf("prefilter-off arm carries prefilter counters: %+v", pfOff)
	}
}

// TestEDFFallback: an EDF source pointed at a directory with no
// recordings degrades to the synthetic generator instead of failing, so
// scenarios stay runnable without the access-gated corpus.
func TestEDFFallback(t *testing.T) {
	spec, ok := Lookup("clean-replay")
	if !ok {
		t.Fatal("clean-replay missing from matrix")
	}
	spec.Name = "edf-fallback"
	spec.Source = Source{Kind: "edf", Dir: t.TempDir()}
	spec.Duration = 60
	spec.Seizures = Seizures{}
	spec.Confirm = false
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Source != "synth-fallback" {
		t.Fatalf("source = %q, want synth-fallback", w.Source)
	}
	if len(w.Streams) != 2 || len(w.Streams[0].C0) != 60*128 {
		t.Fatalf("fallback streams malformed: %d streams", len(w.Streams))
	}
	// A nonexistent directory falls back the same way.
	spec.Source.Dir = "/nonexistent/scenario-edf"
	if w, err = Build(spec); err != nil || w.Source != "synth-fallback" {
		t.Fatalf("missing dir: source %q err %v", w.Source, err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Duration: 5},                 // too short
		{Duration: 60.5},              // fractional seconds
		{Admission: "lossy"},          // unknown policy
		{Source: Source{Kind: "edf"}}, // edf without dir
		{Seizures: Seizures{Count: 1, First: 400, Duration: 30}}, // overflows 420 s
		{Dropouts: Dropouts{Count: 1, First: 0, Duration: 10, Channel: 2}},
		{Quality: &signal.QualityConfig{FlatlineStd: -1}},
		{Prefilter: &PrefilterSpec{Factor: 0.5}},                   // factor must exceed 1
		{Prefilter: &PrefilterSpec{Factor: 2, AuditEvery: -1}},     // negative audit period
		{Prefilter: &PrefilterSpec{Factor: 2, MistuneFactor: 0.5}}, // mistuned gate still needs a valid factor
	}
	for i, s := range bad {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", i, s)
		}
	}
	good := Matrix()
	for _, s := range good {
		if err := s.withDefaults().Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestSpecFaultsSection pins the chaos plumbing in the spec format: a
// faults section survives a JSON round trip intact (so a scenario file
// replays the identical fault schedule), and an invalid plan fails
// Validate instead of silently running a clean baseline.
func TestSpecFaultsSection(t *testing.T) {
	spec := Spec{
		Name: "chaos",
		Seed: 9,
		Faults: &fault.Plan{Seed: 42, Rules: []fault.Rule{
			{Peer: "127.0.0.1:7461", Kind: fault.KindPartition, Start: 30, Duration: 10, Repeat: 2, Period: 60, Jitter: 3},
		}},
	}
	if err := spec.withDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || !reflect.DeepEqual(*got.Faults, *spec.Faults) {
		t.Fatalf("faults section did not round-trip: %+v", got.Faults)
	}
	ws1, err := spec.Faults.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := got.Faults.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws1, ws2) {
		t.Fatal("fault schedule changed across the spec round trip")
	}

	spec.Faults.Rules[0].Duration = 0
	if err := spec.withDefaults().Validate(); err == nil {
		t.Fatal("spec with an invalid fault rule validated")
	}
}
