package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
	"selflearn/internal/synth"
)

// testWorkspace builds the feature workspace a worker would own for cfg.
func testWorkspace(tb testing.TB, cfg Config) *features.Workspace {
	tb.Helper()
	ws, err := features.NewWorkspace(cfg.SampleRate, cfg.FeatureCfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ws
}

// benchSession builds a worker-confined session the way a shard does,
// with an alarm config strict enough that background EEG never fires
// (an alarm appends to the detector's alarm log, which is the one
// legitimate allocation on the path).
func benchSession(tb testing.TB, historyRows int) (*session, Config) {
	tb.Helper()
	cfg := Config{
		Workers:    1,
		SampleRate: testRate,
		History:    time.Minute,
		AlarmCfg: rt.Config{
			VoteWindow:   12,
			VotesToRaise: 12,
			Refractory:   5 * time.Minute,
			Hop:          time.Second,
		},
	}.withDefaults()
	sess, err := newSession("alloc-guard", historyRows, cfg, testWorkspace(tb, cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return sess, cfg
}

// trainOnRecording extracts a session's worth of rows from a synthetic
// recording and fits a small forest, giving the classify path a real
// model to walk.
func trainOnRecording(tb testing.TB) *forest.FlatForest {
	tb.Helper()
	sess, _ := benchSession(tb, 256)
	rec := testRecording(tb, 5, 120, 40, 20)
	rows, err := sess.ingest(rec.Data[0], rec.Data[1])
	if err != nil {
		tb.Fatal(err)
	}
	if len(rows) < 20 {
		tb.Fatalf("only %d rows extracted", len(rows))
	}
	X := make([][]float64, 0, len(rows))
	y := make([]bool, 0, len(rows))
	for i, r := range rows {
		X = append(X, append([]float64(nil), r...))
		sec := float64(i) // one row per second after the first window
		y = append(y, sec >= 36 && sec < 56)
	}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 20, MaxDepth: 8, MinLeaf: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return f.Flatten()
}

// TestSessionBatchPathZeroAlloc is the end-to-end allocation guard for
// the serving hot path as a worker runs it for a lone job: one-second
// sample batches through a one-job drain — admit (Streamer.Push →
// history ring), score (QuantForest classification) and settle (alarm
// smoothing) — with zero allocations per batch in steady state.
func TestSessionBatchPathZeroAlloc(t *testing.T) {
	w, srv := drainWorker(t)
	const historyRows = 256
	sess, err := w.session("alloc-guard", historyRows)
	if err != nil {
		t.Fatal(err)
	}
	sess.model.Store(trainOnRecording(t))
	rec := testRecording(t, 9, 60, -1, 0)
	c0, c1 := rec.Data[0], rec.Data[1]
	batch := int(testRate)
	d := &drain{}
	// Warm-up: size every buffer (first windows, scratch, prediction).
	pos := 0
	push := func() {
		drainOne(w, d, Job{Patient: "alloc-guard", C0: c0[pos : pos+batch], C1: c1[pos : pos+batch]}, historyRows)
		pos += batch
		if pos+batch > len(c0) {
			pos = 8 * batch
		}
	}
	for i := 0; i < 10; i++ {
		push()
	}
	if allocs := testing.AllocsPerRun(30, push); allocs != 0 {
		t.Fatalf("one-job drain allocates %.1f objects per one-second batch, want 0", allocs)
	}
	if st := srv.Snapshot(); st.StreamErrors != 0 || st.Windows == 0 {
		t.Fatalf("drains classified %d windows with %d stream errors", st.Windows, st.StreamErrors)
	}
}

// TestSessionBatchLongerThanHistoryRing pins the wraparound escape
// hatch: a single batch that emits more rows than the ring has slots
// must still hand classify distinct, correct rows — the recycled
// entries get private copies.
func TestSessionBatchLongerThanHistoryRing(t *testing.T) {
	cfg := Config{Workers: 1, SampleRate: testRate, History: 6 * time.Second}.withDefaults()
	sess, err := newSession("wrap", 6, cfg, testWorkspace(t, cfg)) // 6-slot ring
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecording(t, 13, 30, -1, 0) // one 30 s batch → ~27 rows
	rows, err := sess.ingest(rec.Data[0], rec.Data[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) <= 6 {
		t.Fatalf("want more rows than ring slots, got %d", len(rows))
	}
	// Reference: the same recording through a fresh streamer.
	ref, err := newSession("ref", len(rows), cfg, testWorkspace(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ingest(rec.Data[0], rec.Data[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("reference emitted %d rows vs %d", len(want), len(rows))
	}
	for i := range want {
		for f := range want[i] {
			if rows[i][f] != want[i][f] {
				t.Fatalf("row %d feature %d corrupted by ring wraparound: %g vs %g",
					i, f, rows[i][f], want[i][f])
			}
		}
	}
}

// TestSessionHistorySurvivesStreamerReuse pins the row-copy semantics:
// rows handed to the history ring must not alias the streamer's reused
// emission buffer, so later batches cannot corrupt the buffered hour
// the learner trains on.
func TestSessionHistorySurvivesStreamerReuse(t *testing.T) {
	sess, _ := benchSession(t, 64)
	rec := testRecording(t, 11, 30, -1, 0)
	rows, err := sess.ingest(rec.Data[0], rec.Data[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("want several rows, got %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if &rows[i][0] == &rows[0][0] {
			t.Fatal("distinct rows alias the same backing buffer")
		}
	}
	first := append([]float64(nil), rows[0]...)
	snap := sess.historySnapshot()
	// Stream another batch: must not mutate the earlier snapshot or the
	// remembered row.
	if _, err := sess.ingest(rec.Data[0], rec.Data[1]); err != nil {
		t.Fatal(err)
	}
	for f, v := range first {
		if snap[0][f] != v {
			t.Fatalf("history snapshot row 0 feature %d changed under streaming", f)
		}
	}
}

// TestSessionFootprint guards the heap one live session holds at the
// paper's operating point (256 Hz, one hour of history): the buffered
// hour of feature rows, the two 4 s sample rings, the DWT coefficients
// its streamer carries from one window to the next, and at most 16 KiB
// besides — the rest of feature extraction scratch belongs to the
// worker, not the session. Two rounds of 64 streams are measured and differenced, so
// per-server costs cancel.
func TestSessionFootprint(t *testing.T) {
	const (
		rate    = 256
		round   = 64
		seconds = 5
		windows = seconds - 4 + 1 // 4 s windows on a 1 s hop
	)
	srv, err := New(Config{Workers: 1, SampleRate: rate, History: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID: "footprint", RecordID: "r1", Seed: 21, Duration: seconds,
		SampleRate: rate, Background: synth.DefaultBackground(),
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Stream, 0, 2*round)
	heapAfterRound := func() int64 {
		for i := 0; i < round; i++ {
			h := open(t, srv, fmt.Sprintf("footprint-%03d", len(handles)))
			stream(t, h, rec)
			handles = append(handles, h)
		}
		want := uint64(len(handles) * windows)
		deadline := time.Now().Add(time.Minute)
		for srv.Snapshot().Windows < want {
			if time.Now().After(deadline) {
				t.Fatalf("windows stuck at %d, want %d", srv.Snapshot().Windows, want)
			}
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	first := heapAfterRound()
	perSession := (heapAfterRound() - first) / round
	const (
		history = 3600 * 10 * 8 // one hour of 10-feature rows
		rings   = 2 * 1024 * 8  // two 4 s channel windows at 256 Hz
		// Every level's approximation of a 1,024-sample window (1,016
		// coefficients) and details 3, 6 and 7 (152).
		carry = 1168 * 8
		slack = 16 << 10
	)
	t.Logf("heap per session: %d B", perSession)
	if perSession > history+rings+carry+slack {
		t.Fatalf("a session holds %d B of heap, want at most %d B (history %d + rings %d + carried DWT %d + %d)",
			perSession, history+rings+carry+slack, history, rings, carry, slack)
	}
}
