package fault

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"selflearn/internal/ml/forest"
	"selflearn/internal/serve"
)

// tinyFlat trains a trivially separable detector — enough bytes on disk
// for a torn write to leave an unparsable prefix.
func tinyFlat(t *testing.T) *forest.FlatForest {
	t.Helper()
	X := [][]float64{{0, 0}, {1, 1}, {0, 0.1}, {1, 0.9}, {0.1, 0}, {0.9, 1}}
	y := []bool{false, true, false, true, false, true}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 5, MinLeaf: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return f.Flatten()
}

// TestStoreTornWriteQuarantined is the end-to-end torn-checkpoint
// story: a save inside a torn-write window lands truncated and is
// reported as a store error; the FileStore refuses to parse the stump,
// quarantines it, and a later clean save recovers the patient.
func TestStoreTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	fs, err := serve.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj, clk := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "store", Kind: KindTornWrite, Start: 0, Duration: 1, Fraction: 0.5},
	}})
	st := NewStore(fs, inj, "store")

	f := tinyFlat(t)
	if err := st.SaveVersion("p1", f, 1); !errors.Is(err, ErrStoreFault) {
		t.Fatalf("torn save = %v, want ErrStoreFault (the caller must count it)", err)
	}
	// The file on disk is a truncated stump: loading must fail and move
	// it aside, never hand a half-parsed detector to the serving path.
	if _, _, err := fs.LoadVersion("p1"); err == nil {
		t.Fatal("torn checkpoint loaded without error")
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantined files = %v, want exactly one", quarantined)
	}
	// A load after quarantine is a clean miss, not a repeated error.
	if m, v, err := fs.LoadVersion("p1"); err != nil || m != nil || v != 0 {
		t.Fatalf("post-quarantine load = (%v, %d, %v), want a clean miss", m, v, err)
	}

	// Past the window the store behaves, and the patient recovers.
	clk.advance(2 * time.Second)
	if err := st.SaveVersion("p1", f, 2); err != nil {
		t.Fatalf("clean save after the window = %v", err)
	}
	m, v, err := st.LoadVersion("p1")
	if err != nil || m == nil || v != 2 {
		t.Fatalf("reload = (%v, %d, %v), want the v2 checkpoint", m, v, err)
	}
}

func TestStoreSaveLoadErrWindows(t *testing.T) {
	fs, err := serve.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj, clk := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "store", Kind: KindStoreSaveErr, Start: 0, Duration: 1},
		{Peer: "store", Kind: KindStoreLoadErr, Start: 0, Duration: 1},
	}})
	st := NewStore(fs, inj, "store")
	f := tinyFlat(t)

	if err := st.SaveVersion("p1", f, 0); !errors.Is(err, ErrStoreFault) {
		t.Fatalf("save in an error window = %v, want ErrStoreFault", err)
	}
	if _, _, err := st.LoadVersion("p1"); !errors.Is(err, ErrStoreFault) {
		t.Fatalf("load in an error window = %v, want ErrStoreFault", err)
	}
	// A different label is untouched by the windows.
	other := NewStore(fs, inj, "other-store")
	if err := other.SaveVersion("p2", f, 0); err != nil {
		t.Fatalf("save through an unmatched label = %v", err)
	}

	clk.advance(2 * time.Second)
	if err := st.SaveVersion("p1", f, 0); err != nil {
		t.Fatalf("save after the window = %v", err)
	}
	if m, _, err := st.LoadVersion("p1"); err != nil || m == nil {
		t.Fatalf("load after the window = (%v, %v)", m, err)
	}
}

// filelessStore is a ModelStore with no file behind it.
type filelessStore struct{}

func (filelessStore) LoadVersion(string) (*forest.FlatForest, uint64, error) { return nil, 0, nil }
func (filelessStore) SaveVersion(string, *forest.FlatForest, uint64) error   { return nil }

// TestStoreTornWriteDegradesWithoutFile: a store with no file has
// nothing to tear, so the fault must degrade to a save error, not pass
// silently.
func TestStoreTornWriteDegradesWithoutFile(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "store", Kind: KindTornWrite, Start: 0, Duration: 1},
	}})
	st := NewStore(filelessStore{}, inj, "store")
	if err := st.SaveVersion("p1", tinyFlat(t), 1); !errors.Is(err, ErrStoreFault) {
		t.Fatalf("torn save on a fileless store = %v, want ErrStoreFault", err)
	}
}

func TestStoreLatency(t *testing.T) {
	fs, err := serve.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "store", Kind: KindStoreLatency, Start: 0, Duration: 1000, LatencyMs: 40},
	}})
	st := NewStore(fs, inj, "store")
	start := time.Now()
	if _, _, err := st.LoadVersion("p1"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("latency window delayed the load only %v, want ≥ ~40ms", elapsed)
	}
}
