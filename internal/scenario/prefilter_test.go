package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestPrefilterWitness is the pinned witness for the edge/cloud
// two-stage split, on a seizure-sparse six-hour single-patient stream:
//
//   - equal event-level sensitivity with the prefilter on and off;
//   - bit-identical alarms between the engine's gated replay and a
//     reference run that pushes exactly the gated seconds — alarms are
//     a function of the admitted stream alone, digests and audit
//     samples never perturb it;
//   - uplink bytes reduced ≥ 100x, by exact wire-frame accounting;
//   - the negative control: a mis-tuned gate (declaring one factor,
//     suppressing with a far blunter one) loses the seizure AND trips
//     the shard's audit into EventPrefilterDrift.
func TestPrefilterWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("six-hour witness replay in -short mode")
	}

	on := Spec{
		Name:       "prefilter-witness",
		Seed:       4242,
		Patients:   1,
		Duration:   21600,
		SampleRate: 128,
		Seizures:   Seizures{Count: 3, First: 600, Gap: 9000, Duration: 20},
		Confirm:    true,
		Prefilter:  &PrefilterSpec{Factor: 2.5, AuditEvery: 1024},
	}
	off := on
	off.Name = "prefilter-witness-off"
	off.Prefilter = nil

	type arm struct {
		res *Result
		col *Collector
		w   *Workload
	}
	run := func(s Spec) arm {
		t.Helper()
		w, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector()
		srv, err := NewLocalServer(w, c)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := w.Run(srv, c)
		if err != nil {
			t.Fatal(err)
		}
		return arm{res: res, col: c, w: w}
	}

	onArm := run(on)
	offArm := run(off)

	// Event-level sensitivity: every scored seizure detected in both
	// arms — and non-vacuously so.
	if offArm.res.Events != 2 || offArm.res.Detected != 2 {
		t.Fatalf("full-rate baseline detected %d/%d events: %+v", offArm.res.Detected, offArm.res.Events, offArm.res)
	}
	if onArm.res.Events != offArm.res.Events || onArm.res.Detected != offArm.res.Detected {
		t.Errorf("prefilter changed event-level detection:\n  on:  %+v\n  off: %+v", onArm.res, offArm.res)
	}

	t.Logf("uplink: %d bytes full-rate, %d gated (%.1fx); suppressed %d, audit samples %d",
		offArm.res.UplinkBytes, onArm.res.UplinkBytes,
		float64(offArm.res.UplinkBytes)/float64(onArm.res.UplinkBytes),
		onArm.res.SuppressedWindows, onArm.res.AuditSamples)

	// The uplink claim: ≥ 100x fewer bytes on this seizure-sparse
	// stream, with exact wire-frame accounting on both sides.
	if onArm.res.UplinkBytes == 0 || offArm.res.UplinkBytes < 100*onArm.res.UplinkBytes {
		t.Errorf("uplink reduction below 100x: %d bytes full-rate vs %d gated (%.1fx)",
			offArm.res.UplinkBytes, onArm.res.UplinkBytes,
			float64(offArm.res.UplinkBytes)/float64(onArm.res.UplinkBytes))
	}

	// The gated arm's audit contract: overwhelming suppression, at
	// least one full-rate audit sample, and no drift from a well-tuned
	// gate. (Drain already verified suppression and sample counts are
	// exactly the client's.)
	if onArm.res.SuppressedWindows < uint64(0.9*on.Duration) {
		t.Errorf("suppressed only %d of %g windows", onArm.res.SuppressedWindows, on.Duration)
	}
	if onArm.res.AuditSamples == 0 {
		t.Error("no audit samples crossed the wire")
	}
	if onArm.res.DriftEvents != 0 {
		t.Errorf("well-tuned gate fired drift: %+v", onArm.res)
	}
	if offArm.res.SuppressedWindows != 0 || offArm.res.AuditSamples != 0 {
		t.Errorf("prefilter-off arm reported suppression: %+v", offArm.res)
	}

	// Bit-identity: a reference run pushing exactly the gated seconds
	// (no digests, no audit samples, same confirm position) must raise
	// alarms at identical admitted-stream times.
	ps := onArm.w.Streams[0]
	fs := int(onArm.w.SampleRate)
	plan, err := buildPrefilterPlan(ps, fs, onArm.w.Spec.Prefilter)
	if err != nil {
		t.Fatal(err)
	}
	cRef := NewCollector()
	srvRef, err := NewLocalServer(onArm.w, cRef)
	if err != nil {
		t.Fatal(err)
	}
	defer srvRef.Close()
	h, err := srvRef.Open(ps.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	confirmAt := int(math.Ceil(ps.Truth[0].End)) + 10
	shipped := 0
	for sec := range plan.ship {
		if plan.ship[sec] {
			lo := sec * fs
			if err := retry(func() error { return h.Push(ps.C0[lo:lo+fs], ps.C1[lo:lo+fs]) }); err != nil {
				t.Fatalf("reference push at %d: %v", sec, err)
			}
			shipped++
		}
		if sec == confirmAt {
			if err := retry(h.Confirm); err != nil {
				t.Fatalf("reference confirm: %v", err)
			}
			if err := cRef.WaitVersion(ps.ID, 1, 90*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := srvRef.Snapshot()
		if st.Windows >= uint64(shipped-3) && cRef.TotalAlarms() >= st.Alarms {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reference replay did not drain: %d/%d windows", st.Windows, shipped-3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want, got := onArm.col.AlarmTimes(ps.ID), cRef.AlarmTimes(ps.ID)
	if len(want) == 0 {
		t.Fatal("witness vacuous: gated replay raised no alarms")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("admitted-stream alarms differ:\n  engine:    %v\n  reference: %v", want, got)
	}

	// Negative control: the device declares factor 2.5 but actually
	// gates at 9 — the seizure is suppressed, detection collapses, and
	// the shard's digest audit crosses the drift threshold.
	neg := Spec{
		Name:       "prefilter-mistuned",
		Seed:       4242,
		Patients:   1,
		Duration:   900,
		SampleRate: 128,
		Seizures:   Seizures{Count: 1, First: 120, Duration: 20},
		Prefilter:  &PrefilterSpec{Factor: 2.5, AuditEvery: 8, DriftThreshold: 2, MistuneFactor: 9},
	}
	negRes, err := runLocal(neg)
	if err != nil {
		t.Fatal(err)
	}
	if negRes.DriftEvents == 0 {
		t.Errorf("mis-tuned gate raised no EventPrefilterDrift: %+v", negRes)
	}
	if negRes.AuditDisagreements < 2 {
		t.Errorf("mis-tuned gate logged %d audit disagreements, want ≥ 2", negRes.AuditDisagreements)
	}
	if negRes.Detected != 0 {
		t.Errorf("mis-tuned gate still detected %d events — negative control broken", negRes.Detected)
	}
}
