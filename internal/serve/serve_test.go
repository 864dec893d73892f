package serve

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"time"

	"selflearn/internal/features"
	"selflearn/internal/signal"
	"selflearn/internal/synth"
)

// testRate keeps feature extraction cheap in tests: 4 s windows at
// 128 Hz are 512 samples, still divisible by 2^7 for the level-7 DWT.
const testRate = 128

// testRecording renders a two-channel synthetic recording; seizureStart
// < 0 yields a seizure-free background.
func testRecording(t testing.TB, seed int64, duration, seizureStart, seizureDur float64) *signal.Recording {
	t.Helper()
	cfg := synth.RecordConfig{
		PatientID:  fmt.Sprintf("synthetic-%d", seed),
		RecordID:   "r1",
		Seed:       seed,
		Duration:   duration,
		SampleRate: testRate,
		Background: synth.DefaultBackground(),
	}
	if seizureStart >= 0 {
		cfg.Seizures = []synth.SeizureEvent{{Start: seizureStart, Duration: seizureDur, Config: synth.DefaultSeizure()}}
	}
	rec, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// stream pushes rec through the handle in one-second batches, retrying
// on backpressure.
func stream(t testing.TB, h *Stream, rec *signal.Recording) {
	t.Helper()
	c0, c1 := rec.Data[0], rec.Data[1]
	batch := int(rec.SampleRate)
	for off := 0; off < len(c0); off += batch {
		end := off + batch
		if end > len(c0) {
			end = len(c0)
		}
		for {
			err := h.Push(c0[off:end], c1[off:end])
			if err == nil {
				break
			}
			if err != ErrBackpressure {
				t.Fatalf("Push: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// open returns a handle, failing the test on error.
func open(t testing.TB, srv *Server, patient string) *Stream {
	t.Helper()
	h, err := srv.Open(patient)
	if err != nil {
		t.Fatalf("Open(%q): %v", patient, err)
	}
	return h
}

// awaitRetrains polls until the learner pool has finished n retrains
// (success or failure) or the deadline passes.
func awaitRetrains(t testing.TB, srv *Server, n uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.Snapshot()
		if st.Retrains+st.RetrainErrors >= n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSessionLifecycleAndSelfLearning(t *testing.T) {
	srv, err := New(Config{
		Workers:            2,
		SampleRate:         testRate,
		History:            4 * time.Minute,
		AvgSeizureDuration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const patient = "chb01"
	h := open(t, srv, patient)
	// Phase 1: stream a buffer containing one seizure, then confirm it.
	rec := testRecording(t, 1, 180, 90, 24)
	stream(t, h, rec)
	if err := h.Confirm(); err != nil {
		t.Fatalf("Confirm: %v", err)
	}
	if st := awaitRetrains(t, srv, 1); st.Retrains != 1 {
		t.Fatalf("retrain failed: %+v", st)
	}
	if m, _ := srv.ModelVersioned(patient); m == nil {
		t.Fatal("no model cached after retrain")
	}

	// Phase 2: the retrained detector must alarm on a fresh seizure.
	rec2 := testRecording(t, 2, 180, 100, 24)
	stream(t, h, rec2)
	srv.Close()

	st := srv.Snapshot()
	if st.Sessions != 1 || st.SessionsCreated != 1 {
		t.Fatalf("sessions = %d created %d, want 1/1", st.Sessions, st.SessionsCreated)
	}
	// First stream: 180−4+1 rows while the window fills; second stream
	// continues the same session, whose ring is already full, so every
	// hop emits: 180 more rows.
	wantWindows := uint64((180 - 4 + 1) + 180)
	if st.Windows != wantWindows {
		t.Fatalf("windows = %d, want %d", st.Windows, wantWindows)
	}
	if st.Alarms == 0 {
		t.Fatal("retrained detector raised no alarm on a fresh seizure")
	}

	// The handle's view must agree with the server's: this stream
	// carried all the traffic.
	hs := h.Stats()
	if hs.Batches != st.Batches || hs.Windows != st.Windows || hs.Alarms != st.Alarms || hs.Confirms != 1 {
		t.Fatalf("stream stats %+v disagree with server stats %+v", hs, st)
	}

	// Pushes after server Close must fail fast.
	if err := h.Push([]float64{0}, []float64{0}); err != ErrClosed {
		t.Fatalf("Push after server Close = %v, want ErrClosed", err)
	}
	if err := h.Confirm(); err != ErrClosed {
		t.Fatalf("Confirm after server Close = %v, want ErrClosed", err)
	}
	if _, err := srv.Open(patient); err != ErrClosed {
		t.Fatalf("Open after Close = %v, want ErrClosed", err)
	}
}

func TestConcurrentPushManyPatients(t *testing.T) {
	srv, err := New(Config{
		Workers:    4,
		QueueDepth: 64,
		SampleRate: testRate,
		History:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const patients = 32
	const seconds = 30
	rec := testRecording(t, 7, seconds, -1, 0)
	var wg sync.WaitGroup
	for p := 0; p < patients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Workers only read the sample slices, so all patients can
			// share one recording.
			h := open(t, srv, fmt.Sprintf("patient-%03d", p))
			defer h.Close()
			stream(t, h, rec)
		}(p)
	}
	wg.Wait()
	srv.Close()

	st := srv.Snapshot()
	if st.Sessions != patients {
		t.Fatalf("sessions = %d, want %d", st.Sessions, patients)
	}
	if st.StreamsOpen != 0 {
		t.Fatalf("streams open after all closed = %d, want 0", st.StreamsOpen)
	}
	wantWindows := uint64(patients * (seconds - 4 + 1))
	if st.Windows != wantWindows {
		t.Fatalf("windows = %d, want %d", st.Windows, wantWindows)
	}
	if st.Alarms != 0 {
		t.Fatalf("alarms = %d on untrained sessions, want 0", st.Alarms)
	}
}

func TestSessionLRUEviction(t *testing.T) {
	srv, err := New(Config{
		Workers:     1, // single shard so the per-worker cap is exact
		MaxSessions: 2,
		SampleRate:  testRate,
		History:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := testRecording(t, 9, 10, -1, 0)
	handles := map[string]*Stream{}
	for _, p := range []string{"a", "b", "c", "a", "d"} {
		h, ok := handles[p]
		if !ok {
			h = open(t, srv, p)
			handles[p] = h
		}
		stream(t, h, rec)
	}
	srv.Close()

	st := srv.Snapshot()
	if st.Sessions != 2 {
		t.Fatalf("live sessions = %d, want cap 2", st.Sessions)
	}
	// a, b, c created; c evicts a; a recreated evicting b; d evicts c.
	if st.SessionsCreated != 5 || st.SessionsEvicted != 3 {
		t.Fatalf("created/evicted = %d/%d, want 5/3", st.SessionsCreated, st.SessionsEvicted)
	}
}

func TestNewRejectsBadPipelineConfig(t *testing.T) {
	// 4 s windows at 16 Hz cannot feed a level-7 DWT; the failure only
	// surfaces at a window boundary, so New must pre-flight it.
	if _, err := New(Config{SampleRate: 16}); err == nil {
		t.Fatal("New accepted a sample rate too low for the level-7 DWT")
	}
	// A partially-built feature config must fail loudly, not be
	// silently replaced with the defaults.
	if _, err := New(Config{SampleRate: testRate, FeatureCfg: features.Config{Window: signal.DefaultWindow()}}); err == nil {
		t.Fatal("New accepted a feature config with a window but Level 0")
	}
	// An invalid quality gate is refused up front, not at the first batch.
	if _, err := New(Config{SampleRate: testRate}, WithQualityGate(signal.QualityConfig{})); err == nil {
		t.Fatal("New accepted a quality gate with no clip level")
	}
}

func TestOpenAndPushValidation(t *testing.T) {
	srv, err := New(Config{Workers: 1, SampleRate: testRate})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Open(""); err == nil {
		t.Fatal("Open accepted an empty patient ID")
	}
	h := open(t, srv, "p")
	if err := h.Push([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched channel lengths accepted")
	}
	if err := h.Push(nil, nil); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}

	// A closed handle fails without touching the server; the patient can
	// reconnect with a fresh handle.
	h.Close()
	h.Close() // idempotent
	if err := h.Push([]float64{0}, []float64{0}); err != ErrStreamClosed {
		t.Fatalf("Push on closed stream = %v, want ErrStreamClosed", err)
	}
	if err := h.Confirm(); err != ErrStreamClosed {
		t.Fatalf("Confirm on closed stream = %v, want ErrStreamClosed", err)
	}
	if st := srv.Snapshot(); st.StreamsOpen != 0 {
		t.Fatalf("StreamsOpen = %d after double Close, want 0", st.StreamsOpen)
	}
	h2 := open(t, srv, "p")
	if err := h2.Push([]float64{0}, []float64{0}); err != nil {
		t.Fatalf("Push on reopened stream = %v", err)
	}
}

// TestShardHashMatchesFNV pins the inlined shard hash to the stdlib
// FNV-1a it replaced, so patients keep their shard across the change.
func TestShardHashMatchesFNV(t *testing.T) {
	for _, id := range []string{"", "p", "chb01", "patient-0042", "ward-3/bed 12"} {
		h := fnv.New32a()
		h.Write([]byte(id))
		if got, want := shardHash(id), h.Sum32(); got != want {
			t.Fatalf("shardHash(%q) = %#x, want %#x", id, got, want)
		}
	}
}

// TestStatsMergeCoversEveryField sets every Stats field through
// reflection, so a field added to Stats but forgotten in Add or Since
// fails here: Add must sum it, and Since must subtract it unless it is
// one of the gauges, which pass through.
func TestStatsMergeCoversEveryField(t *testing.T) {
	gauges := map[string]bool{"Sessions": true, "StreamsOpen": true, "ModelsCached": true, "QueueDepth": true}
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	field := func(v reflect.Value, i int) int64 {
		f := v.Field(i)
		if f.CanInt() {
			return f.Int()
		}
		return int64(f.Uint())
	}
	set := func(v reflect.Value, i int, n int64) {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(n)
		case reflect.Uint64:
			f.SetUint(uint64(n))
		default:
			t.Fatalf("Stats.%s has kind %v; extend this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	for i := 0; i < va.NumField(); i++ {
		set(va, i, int64(100*(i+1)))
		set(vb, i, int64(i+1))
	}
	sum := a
	sum.Add(b)
	vs, vd := reflect.ValueOf(sum), reflect.ValueOf(a.Since(b))
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		av, bv := field(va, i), field(vb, i)
		if got := field(vs, i); got != av+bv {
			t.Errorf("Add: %s = %d, want %d", name, got, av+bv)
		}
		want := av - bv
		if gauges[name] {
			want = av
		}
		if got := field(vd, i); got != want {
			t.Errorf("Since: %s = %d, want %d", name, got, want)
		}
	}
}
