package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
)

// tinyForest trains a trivially separable two-feature detector and
// flattens it to the serving representation.
func tinyForest(t testing.TB, seed int64) *forest.FlatForest {
	t.Helper()
	X := [][]float64{{0, 0}, {1, 1}, {0, 0.1}, {1, 0.9}, {0.1, 0}, {0.9, 1}}
	y := []bool{false, true, false, true, false, true}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 5, MinLeaf: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f.Flatten()
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if f, _, err := fs.LoadVersion("absent"); err != nil || f != nil {
		t.Fatalf("LoadVersion(absent) = %v, %v; want nil, nil", f, err)
	}
	// An ID with path-hostile characters must stay one flat file.
	const id = "ward-3/bed 12"
	f := tinyForest(t, 1)
	if err := fs.SaveVersion(id, f, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.LoadVersion(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0}, {1, 1}, {0.05, 0.05}, {0.95, 0.95}} {
		if got.Predict(x) != f.Predict(x) {
			t.Fatalf("reloaded forest disagrees on %v", x)
		}
	}
	// Overwrite replaces the checkpoint rather than accumulating files.
	if err := fs.SaveVersion(id, tinyForest(t, 2), 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d files, want 1", len(entries))
	}
	if err := fs.SaveVersion(id, nil, 0); err == nil {
		t.Fatal("SaveVersion(nil) accepted")
	}
}

// TestFileStoreFlatCheckpointInterop: the store and the tools share
// one checkpoint format. A checkpoint as pipeline.Session.SaveDetector
// and cmd/deploy write it (FlatForest.MarshalJSON, no version) loads
// through the store as version 0, and the store's versioned checkpoint
// loads through forest.LoadFlat, as cmd/deploy and cmd/modelinfo read
// it, with identical predictions throughout.
func TestFileStoreFlatCheckpointInterop(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := tinyForest(t, 3)
	probe := [][]float64{{0, 0}, {1, 1}, {0.05, 0.02}, {0.97, 0.95}, {0.5, 0.5}}
	agree := func(name string, got *forest.FlatForest) {
		t.Helper()
		for _, x := range probe {
			if got.Predict(x) != f.Predict(x) {
				t.Fatalf("%s diverges on %v", name, x)
			}
		}
	}

	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.path("deployed"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, v, err := fs.LoadVersion("deployed")
	if err != nil || got == nil || v != 0 {
		t.Fatalf("SaveDetector checkpoint = %v, %d, %v; want model, 0, nil", got, v, err)
	}
	agree("store load of a SaveDetector checkpoint", got)

	if err := fs.SaveVersion("stored", f, 4); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(fs.path("stored"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := forest.LoadFlat(data)
	if err != nil {
		t.Fatalf("LoadFlat refuses a versioned checkpoint: %v", err)
	}
	agree("LoadFlat of a versioned checkpoint", back)
}

// TestFileStoreCorruptCheckpointRecovery: a checkpoint that fails to
// parse is reported once and quarantined, so the patient recovers —
// subsequent loads are clean misses and the next save checkpoints
// normally — instead of erroring on every load forever. Truncation (a
// crash mid-write predating atomic renames) and byte corruption both
// take this path.
func TestFileStoreCorruptCheckpointRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage", []byte("{not json")},
		{"truncated", nil}, // zero-length file: crash at the worst moment
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(fs.dir, "p.forest.json")
			if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			// First load reports the corruption (it becomes a
			// Stats.StoreErrors tick through the cache)...
			if _, _, err := fs.LoadVersion("p"); err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			// ...and quarantines the file rather than deleting evidence.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt checkpoint still at %s (stat err %v)", path, err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			// Second load is a clean miss, not a repeated error.
			if f, _, err := fs.LoadVersion("p"); err != nil || f != nil {
				t.Fatalf("Load after quarantine = %v, %v; want nil, nil", f, err)
			}
			// The patient's next retrain checkpoints and reloads normally.
			want := tinyForest(t, 1)
			if err := fs.SaveVersion("p", want, 0); err != nil {
				t.Fatal(err)
			}
			got, _, err := fs.LoadVersion("p")
			if err != nil || got == nil {
				t.Fatalf("Load after re-save = %v, %v", got, err)
			}
			for _, x := range [][]float64{{0, 0}, {1, 1}} {
				if got.Predict(x) != want.Predict(x) {
					t.Fatalf("re-saved forest disagrees on %v", x)
				}
			}
			// Atomic writes leave no temp droppings behind.
			entries, err := os.ReadDir(fs.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != "p.forest.json" && e.Name() != "p.forest.json.corrupt" {
					t.Fatalf("unexpected file in store dir: %s", e.Name())
				}
			}
		})
	}
}

// TestFileStoreQuarantineKeepsForensics: back-to-back corruption must
// not overwrite the evidence of the first failure — each quarantined
// checkpoint gets a unique name, so an operator investigating repeated
// corruption still has every corpse.
func TestFileStoreQuarantineKeepsForensics(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := fs.path("p")
	corpses := [][]byte{[]byte("{first corruption"), []byte("{second corruption"), []byte("{third corruption")}
	for i, body := range corpses {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.LoadVersion("p"); err == nil {
			t.Fatalf("corruption %d loaded without error", i)
		}
	}
	for name, want := range map[string][]byte{
		path + ".corrupt":   corpses[0],
		path + ".corrupt.1": corpses[1],
		path + ".corrupt.2": corpses[2],
	} {
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("quarantine file %s missing: %v", name, err)
		}
		if string(got) != string(want) {
			t.Fatalf("quarantine file %s holds %q, want %q — forensics overwritten", name, got, want)
		}
	}
	// The patient still recovers: a clean miss, then a normal save.
	if f, _, err := fs.LoadVersion("p"); err != nil || f != nil {
		t.Fatalf("Load after quarantines = %v, %v; want nil, nil", f, err)
	}
	if err := fs.SaveVersion("p", tinyForest(t, 1), 0); err != nil {
		t.Fatal(err)
	}
	if f, _, err := fs.LoadVersion("p"); err != nil || f == nil {
		t.Fatalf("Load after re-save = %v, %v", f, err)
	}
}

// TestStoreVersionRoundTrip pins the ModelStore contract:
// SaveVersion/LoadVersion round-trip the version with the model, and
// version 0 writes a pre-versioning format checkpoint, which loads as
// version 0. TestFileStoreFlatCheckpointInterop loads one written
// outside the store.
func TestStoreVersionRoundTrip(t *testing.T) {
	f := tinyForest(t, 1)
	probe := [][]float64{{0, 0}, {1, 1}, {0.05, 0.05}, {0.95, 0.95}}
	check := func(t *testing.T, st ModelStore) {
		t.Helper()
		if got, v, err := st.LoadVersion("absent"); err != nil || got != nil || v != 0 {
			t.Fatalf("LoadVersion(absent) = %v, %d, %v; want nil, 0, nil", got, v, err)
		}
		if err := st.SaveVersion("p", f, 7); err != nil {
			t.Fatal(err)
		}
		got, v, err := st.LoadVersion("p")
		if err != nil || v != 7 {
			t.Fatalf("LoadVersion = version %d, err %v; want 7, nil", v, err)
		}
		for _, x := range probe {
			if got.Predict(x) != f.Predict(x) {
				t.Fatalf("versioned reload disagrees on %v", x)
			}
		}
		// Saving a newer version replaces the old one.
		if err := st.SaveVersion("p", f, 8); err != nil {
			t.Fatal(err)
		}
		if _, v, _ := st.LoadVersion("p"); v != 8 {
			t.Fatalf("version after re-save = %d, want 8", v)
		}
		// Version 0 is the pre-versioning write: version reads as 0.
		if err := st.SaveVersion("p0", f, 0); err != nil {
			t.Fatal(err)
		}
		if got, v, err := st.LoadVersion("p0"); err != nil || got == nil || v != 0 {
			t.Fatalf("LoadVersion of unversioned save = %v, %d, %v; want model, 0, nil", got, v, err)
		}
	}
	t.Run("file", func(t *testing.T) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(t, fs)
	})
}

// TestLoadVersionReadsOnlyTheLeadingField pins where FileStore reads a
// checkpoint's version: the field SaveVersion writes first. The same
// field anywhere else in the object is not read, so such a checkpoint
// loads as version 0 with its model intact.
func TestLoadVersionReadsOnlyTheLeadingField(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := tinyForest(t, 1)
	if err := fs.SaveVersion("first", f, 12); err != nil {
		t.Fatal(err)
	}
	if got, v, err := fs.LoadVersion("first"); err != nil || got == nil || v != 12 {
		t.Fatalf("leading model_version = %v, %d, %v; want model, 12, nil", got, v, err)
	}
	plain, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	last := append(plain[:len(plain)-1:len(plain)-1], `,"model_version":12}`...)
	if err := os.WriteFile(fs.PathFor("last"), last, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, v, err := fs.LoadVersion("last"); err != nil || got == nil || v != 0 {
		t.Fatalf("trailing model_version = %v, %d, %v; want model, 0, nil", got, v, err)
	}
}

// TestPublishContinuesPersistedVersions: the version sequence must
// survive both LRU eviction and a process restart — a publish that
// regressed the version would make every replica holder refuse the
// newer model as stale.
func TestPublishContinuesPersistedVersions(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mc := newModelCache(1, 2, fs, func(err error) { t.Fatalf("store error: %v", err) })
	f := tinyForest(t, 1)
	if v := mc.Publish("p1", f); v != 1 {
		t.Fatalf("first publish = v%d, want 1", v)
	}
	if v := mc.Publish("p1", f); v != 2 {
		t.Fatalf("second publish = v%d, want 2", v)
	}
	// Evict p1 from the one-slot LRU, then publish again: the sequence
	// continues from the store, not from scratch.
	mc.Publish("p2", tinyForest(t, 2))
	if v := mc.Publish("p1", f); v != 3 {
		t.Fatalf("publish after eviction = v%d, want 3", v)
	}
	// "Restart": a fresh cache over the same directory.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mc2 := newModelCache(4, 2, fs2, func(err error) { t.Fatalf("store error: %v", err) })
	if _, v := mc2.GetVersioned("p1"); v != 3 {
		t.Fatalf("version after restart = %d, want 3", v)
	}
	if v := mc2.Publish("p1", f); v != 4 {
		t.Fatalf("publish after restart = v%d, want 4", v)
	}
}

// TestCorruptCheckpointKeepsVersionSequence: losing a checkpoint to
// corruption must not regress the patient's version sequence — the
// header is written first precisely so truncation leaves the version
// salvageable, and the next publish continues past it. A regression to
// v1 would be refused as stale by every replica holder, and a later
// failover transfer would then overwrite the fresh retrain with the
// old replicated detector.
func TestCorruptCheckpointKeepsVersionSequence(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveVersion("p", tinyForest(t, 1), 5); err != nil {
		t.Fatal(err)
	}
	// Truncate the checkpoint mid-body: the JSON no longer parses, but
	// the version header survives in the prefix.
	data, err := os.ReadFile(fs.path("p"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.path("p"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// The cache's first sight of the checkpoint is the corrupt load: it
	// must salvage the version while quarantining the model, so the next
	// publish continues the sequence.
	var storeErrs int
	mc := newModelCache(4, 2, fs, func(error) { storeErrs++ })
	if got := mc.Publish("p", tinyForest(t, 2)); got != 6 {
		t.Fatalf("publish after corruption = v%d, want 6 (sequence must not regress)", got)
	}
	if storeErrs != 1 {
		t.Fatalf("store errors = %d, want exactly 1", storeErrs)
	}
	// And the raw store surface reports the salvaged version alongside
	// the load error.
	if err := fs.SaveVersion("q", tinyForest(t, 1), 9); err != nil {
		t.Fatal(err)
	}
	qdata, err := os.ReadFile(fs.path("q"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.path("q"), qdata[:len(qdata)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, v, err := fs.LoadVersion("q")
	if err == nil || f != nil {
		t.Fatalf("truncated checkpoint loaded: %v, %v", f, err)
	}
	if v != 9 {
		t.Fatalf("salvaged version = %d, want 9", v)
	}
}

// TestServerServesPatientDespiteCorruptCheckpoint: end to end, a
// corrupt on-disk model must cost the patient their warm start, not
// their service — the session comes up untrained, batches stream, and
// the failure surfaces exactly once in Stats.StoreErrors.
func TestServerServesPatientDespiteCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fs.path("chb01"), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, SampleRate: testRate, History: time.Minute}, WithModelStore(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := open(t, srv, "chb01")
	stream(t, h, testRecording(t, 8, 10, -1, 0))
	srv.Close()
	st := srv.Snapshot()
	if st.Windows == 0 || st.StreamErrors != 0 {
		t.Fatalf("patient did not stream past the corrupt checkpoint: %+v", st)
	}
	if st.StoreErrors != 1 {
		t.Fatalf("StoreErrors = %d, want exactly 1 (quarantine must stop repeats)", st.StoreErrors)
	}
}

// wideForest trains a forest on rows one feature wider than the
// server's, whose splits read the extra last column.
func wideForest(t testing.TB) *forest.FlatForest {
	t.Helper()
	nf := len(features.PaperFeatureNames()) + 1
	X := make([][]float64, 40)
	y := make([]bool, len(X))
	for i := range X {
		X[i] = make([]float64, nf)
		X[i][nf-1] = float64(i)
		y[i] = i >= len(X)/2
	}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 3, MinLeaf: 1, FeatureSubset: nf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f.Flatten()
}

// TestWrongWidthModelStreamsUntrained: a model whose rows are wider
// than the server's feature row would index past every row it scores.
// From the store it is a store error and the patient streams untrained,
// as with a corrupt checkpoint; as an install it is refused.
func TestWrongWidthModelStreamsUntrained(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wide := wideForest(t)
	if err := fs.SaveVersion("chb01", wide, 3); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, SampleRate: testRate, History: time.Minute}, WithModelStore(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := open(t, srv, "chb01")
	stream(t, h, testRecording(t, 8, 60, 20, 20))
	if srv.InstallModel("chb02", wide, 1) {
		t.Fatal("InstallModel accepted a model of the wrong width")
	}
	if m, _ := srv.ModelVersioned("chb02"); m != nil {
		t.Fatal("a refused install is served")
	}
	srv.Close()
	st := srv.Snapshot()
	if st.Windows == 0 || st.StreamErrors != 0 || st.Alarms != 0 {
		t.Fatalf("patient did not stream untrained past the wide checkpoint: %+v", st)
	}
	if st.StoreErrors != 1 {
		t.Fatalf("StoreErrors = %d, want 1, from the session's warm start", st.StoreErrors)
	}
}

func TestStoreBehindCacheSurvivesEviction(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc := newModelCache(1, 2, fs, func(err error) { t.Fatalf("store error: %v", err) })
	f1, f2 := tinyForest(t, 1), tinyForest(t, 2)
	v1 := mc.Publish("p1", f1)
	mc.Publish("p2", f2) // evicts p1 from the one-slot LRU
	if mc.cached("p1") != nil {
		t.Fatal("p1 still in LRU after eviction")
	}
	// Read-through brings the evicted model back from the store.
	got, v := mc.GetVersioned("p1")
	if got == nil || v != v1 {
		t.Fatalf("GetVersioned(p1) = %v, v%d; want the stored model, v%d", got, v, v1)
	}
	if mc.cached("p1") != got {
		t.Fatal("read-through did not repopulate the LRU")
	}
}

// TestServerRestartWarmFromFileStore is the PR's acceptance scenario: a
// server trains a patient, dies, and a new server against the same
// checkpoint directory serves that patient warm — the very first
// batch's predictions come from the persisted model, proven by alarms
// firing with no confirmation ever issued to the second server.
func TestServerRestartWarmFromFileStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:            2,
		SampleRate:         testRate,
		History:            4 * time.Minute,
		AvgSeizureDuration: 20 * time.Second,
	}

	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := New(cfg, WithModelStore(fs1))
	if err != nil {
		t.Fatal(err)
	}
	const patient = "chb01"
	h := open(t, srv1, patient)
	stream(t, h, testRecording(t, 1, 180, 90, 24))
	if err := h.Confirm(); err != nil {
		t.Fatalf("Confirm: %v", err)
	}
	if st := awaitRetrains(t, srv1, 1); st.Retrains != 1 {
		t.Fatalf("retrain failed: %+v", st)
	}
	srv1.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store dir holds %d checkpoints after training, want 1", len(entries))
	}

	// "Restart": a brand-new server, fresh store handle, same directory.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(cfg, WithModelStore(fs2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m, _ := srv2.ModelVersioned(patient); m == nil {
		t.Fatal("restarted server has no model for the trained patient")
	}
	h2 := open(t, srv2, patient)
	stream(t, h2, testRecording(t, 2, 180, 100, 24))
	srv2.Close()

	st := srv2.Snapshot()
	if st.Retrains != 0 || st.Confirms != 0 {
		t.Fatalf("restart test retrained (%d) or confirmed (%d); warmness would be meaningless", st.Retrains, st.Confirms)
	}
	if st.Alarms == 0 {
		t.Fatal("restarted server raised no alarms: session did not warm start from the FileStore")
	}
	if st.StoreErrors != 0 {
		t.Fatalf("StoreErrors = %d, want 0", st.StoreErrors)
	}
}
