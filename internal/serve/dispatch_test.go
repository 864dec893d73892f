package serve

import (
	"fmt"
	"testing"
	"time"

	"selflearn/internal/rt"
)

// drainWorker builds a worker whose goroutine never runs, so tests can
// drive the admit → score → settle drain phases synchronously. The
// alarm config is strict enough that background EEG never fires, as in
// benchSession.
func drainWorker(t *testing.T) (*worker, *Server) {
	t.Helper()
	srv, err := New(Config{
		Workers:    1,
		SampleRate: testRate,
		History:    time.Minute,
		AlarmCfg: rt.Config{
			VoteWindow:   12,
			VotesToRaise: 12,
			Refractory:   5 * time.Minute,
			Hop:          time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w := &worker{
		srv:      srv,
		queue:    NewQueue(8, QueueHooks{}),
		sessions: newLRU[*session](64, func(string, *session) {}),
		ws:       testWorkspace(t, srv.cfg),
	}
	return w, srv
}

// TestDrainZeroAlloc pins the coalescing drain at zero allocations per
// batch in steady state across the three model groups it can mix in one
// pass: a shared quantized model, a float-only model (quant dropped),
// and untrained sessions.
func TestDrainZeroAlloc(t *testing.T) {
	w, _ := drainWorker(t)
	const historyRows = 256
	quantModel := trainOnRecording(t)
	if quantModel.Quant() == nil {
		t.Fatal("trained model failed to quantize")
	}
	floatModel := trainOnRecording(t)
	floatModel.DropQuant()

	rec := testRecording(t, 9, 60, -1, 0)
	c0, c1 := rec.Data[0], rec.Data[1]
	batch := int(testRate)

	patients := []string{"quant-a", "quant-b", "float-c", "cold-d"}
	for _, p := range patients {
		sess, err := w.session(p, historyRows)
		if err != nil {
			t.Fatal(err)
		}
		switch p {
		case "quant-a", "quant-b":
			sess.model.Store(quantModel)
		case "float-c":
			sess.model.Store(floatModel)
		}
	}
	d := &drain{}
	pos := 0
	drainOnce := func() {
		d.reset()
		for _, p := range patients {
			w.admit(d, Job{Patient: p, C0: c0[pos : pos+batch], C1: c1[pos : pos+batch]}, historyRows)
		}
		w.score(d)
		w.settle(d)
		pos += batch
		if pos+batch > len(c0) {
			pos = 8 * batch
		}
	}
	for i := 0; i < 10; i++ {
		drainOnce()
	}
	if allocs := testing.AllocsPerRun(30, drainOnce); allocs != 0 {
		t.Fatalf("coalesced drain allocates %.1f objects per 4-patient round, want 0", allocs)
	}
}

// TestDrainGroupsByModel checks the scoring groups: jobs sharing a
// model pointer are scored in one arena pass whose decisions match the
// per-session path exactly.
func TestDrainGroupsByModel(t *testing.T) {
	w, _ := drainWorker(t)
	const historyRows = 256
	model := trainOnRecording(t)
	rec := testRecording(t, 11, 60, 30, 20)
	c0, c1 := rec.Data[0], rec.Data[1]
	batch := int(testRate)

	// Reference: an identical session classifying alone.
	ref, _ := benchSession(t, historyRows)
	ref.model.Store(model)

	patients := []string{"p0", "p1", "p2"}
	for _, p := range patients {
		sess, err := w.session(p, historyRows)
		if err != nil {
			t.Fatal(err)
		}
		sess.model.Store(model)
	}
	d := &drain{}
	for pos := 0; pos+batch <= len(c0) && pos < 30*batch; pos += batch {
		refRows, err := ref.ingest(c0[pos:pos+batch], c1[pos:pos+batch])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, len(refRows))
		ref.predictInto(want, refRows)
		d.reset()
		for _, p := range patients {
			w.admit(d, Job{Patient: p, C0: c0[pos : pos+batch], C1: c1[pos : pos+batch]}, historyRows)
		}
		w.score(d)
		for i := range d.jobs {
			ji := &d.jobs[i]
			got := d.preds[ji.lo:ji.hi]
			if len(got) != len(want) {
				t.Fatalf("pos %d patient %s: %d preds, reference has %d", pos, ji.j.Patient, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("pos %d patient %s row %d: coalesced decision %v, solo decision %v",
						pos, ji.j.Patient, k, got[k], want[k])
				}
			}
		}
		w.settle(d)
	}
}

// TestDrainConflictDetection pins the invariant that keeps ring views
// safe: a second row-bearing job for the same patient must not join a
// drain, while confirms and other patients may.
func TestDrainConflictDetection(t *testing.T) {
	w, _ := drainWorker(t)
	const historyRows = 256
	rec := testRecording(t, 7, 10, -1, 0)
	sec := int(testRate)
	d := &drain{}
	d.reset()
	// Prime so the 8th second emits a row.
	for i := 0; i < 7; i++ {
		if _, err := w.session("pA", historyRows); err != nil {
			t.Fatal(err)
		}
		sess, _ := w.sessions.Get("pA")
		if _, err := sess.ingest(rec.Data[0][i*sec:(i+1)*sec], rec.Data[1][i*sec:(i+1)*sec]); err != nil {
			t.Fatal(err)
		}
	}
	w.admit(d, Job{Patient: "pA", C0: rec.Data[0][7*sec : 8*sec], C1: rec.Data[1][7*sec : 8*sec]}, historyRows)
	if len(d.jobs) != 1 || d.jobs[0].hi == d.jobs[0].lo {
		t.Fatalf("priming failed: %d jobs in drain", len(d.jobs))
	}
	if !w.conflicts(d, "pA") {
		t.Fatal("second batch for pA must conflict with its queued rows")
	}
	if w.conflicts(d, "pB") {
		t.Fatal("a different patient must not conflict")
	}
}

// TestCoalescedServerMatchesSerial replays the same multi-patient load
// through a coalescing server and a Coalesce=1 (disabled) server and
// demands identical window and alarm accounting — coalescing is a
// scheduling change, never a semantic one.
func TestCoalescedServerMatchesSerial(t *testing.T) {
	rec := testRecording(t, 3, 40, 20, 15)
	c0, c1 := rec.Data[0], rec.Data[1]
	batch := int(testRate)
	run := func(coalesce int) (uint64, uint64, map[string]uint64) {
		srv, err := New(Config{
			Workers:    2,
			Coalesce:   coalesce,
			SampleRate: testRate,
			History:    time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]*Stream, 6)
		for p := range streams {
			h, err := srv.Open(fmt.Sprintf("pt-%d", p))
			if err != nil {
				t.Fatal(err)
			}
			streams[p] = h
		}
		for pos := 0; pos+batch <= len(c0); pos += batch {
			for _, h := range streams {
				for h.Push(c0[pos:pos+batch], c1[pos:pos+batch]) == ErrBackpressure {
					time.Sleep(time.Millisecond)
				}
			}
		}
		perStream := map[string]uint64{}
		srv.Close()
		st := srv.Snapshot()
		for p, h := range streams {
			s := h.Stats()
			perStream[fmt.Sprintf("pt-%d", p)] = s.Windows
		}
		return st.Windows, st.Alarms, perStream
	}
	wSerial, aSerial, perSerial := run(1)
	wCoal, aCoal, perCoal := run(16)
	if wSerial != wCoal {
		t.Fatalf("window count diverged: serial %d, coalesced %d", wSerial, wCoal)
	}
	if aSerial != aCoal {
		t.Fatalf("alarm count diverged: serial %d, coalesced %d", aSerial, aCoal)
	}
	if wSerial == 0 {
		t.Fatal("no windows processed")
	}
	for p, n := range perSerial {
		if perCoal[p] != n {
			t.Fatalf("patient %s: serial %d windows, coalesced %d", p, n, perCoal[p])
		}
	}
}
