package fault

import (
	"errors"
	"fmt"
	"os"
	"time"

	"selflearn/internal/ml/forest"
	"selflearn/internal/serve"
)

// ErrStoreFault is the base error injected store failures wrap.
var ErrStoreFault = errors.New("fault: injected store error")

// Store wraps a serve.ModelStore under an Injector: save/load windows
// fail the matching operation, latency windows delay it, and
// torn-write windows let a SaveVersion reach disk and then truncate
// the checkpoint file mid-body — the crash-during-write case the
// FileStore's quarantine path exists for. Rules match on the store's
// label.
type Store struct {
	inner serve.ModelStore
	file  *serve.FileStore // non-nil when inner is a FileStore (torn writes possible)
	inj   *Injector
	label string
}

var _ serve.ModelStore = (*Store)(nil)

// NewStore wraps inner under inj; rules match on label.
func NewStore(inner serve.ModelStore, inj *Injector, label string) *Store {
	s := &Store{inner: inner, inj: inj, label: label}
	if fs, ok := inner.(*serve.FileStore); ok {
		s.file = fs
	}
	return s
}

func (s *Store) delay() {
	if w, ok := s.inj.Active(s.label, KindStoreLatency); ok {
		time.Sleep(w.Latency)
	}
}

func (s *Store) LoadVersion(patientID string) (*forest.FlatForest, uint64, error) {
	s.delay()
	if _, ok := s.inj.Active(s.label, KindStoreLoadErr); ok {
		return nil, 0, fmt.Errorf("%w: load %s", ErrStoreFault, patientID)
	}
	return s.inner.LoadVersion(patientID)
}

func (s *Store) SaveVersion(patientID string, f *forest.FlatForest, version uint64) error {
	s.delay()
	if _, ok := s.inj.Active(s.label, KindStoreSaveErr); ok {
		return fmt.Errorf("%w: save %s v%d", ErrStoreFault, patientID, version)
	}
	if w, ok := s.inj.Active(s.label, KindTornWrite); ok {
		return s.tornWrite(patientID, f, version, w.Fraction)
	}
	return s.inner.SaveVersion(patientID, f, version)
}

// tornWrite models a crash mid-checkpoint: the save lands, then the
// file is truncated to fraction of its length, leaving bytes that no
// longer parse. Only a FileStore has a file to tear; other stores
// degrade to a save error (their save is atomic by construction).
// The truncation is reported as an error so the caller's accounting
// (StoreErrors) sees the failed checkpoint either way.
func (s *Store) tornWrite(patientID string, f *forest.FlatForest, version uint64, fraction float64) error {
	if s.file == nil {
		return fmt.Errorf("%w: torn write %s v%d (store has no file to tear)", ErrStoreFault, patientID, version)
	}
	if err := s.inner.SaveVersion(patientID, f, version); err != nil {
		return err
	}
	path := s.file.PathFor(patientID)
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("%w: torn write %s v%d: %v", ErrStoreFault, patientID, version, err)
	}
	// Keep at least one byte so the tear is a corrupt file, not a
	// missing one — FileStore treats empty/absent as "no checkpoint".
	n := int64(float64(st.Size()) * fraction)
	n = max(1, min(n, st.Size()-1))
	if err := os.Truncate(path, n); err != nil {
		return fmt.Errorf("%w: torn write %s v%d: %v", ErrStoreFault, patientID, version, err)
	}
	return fmt.Errorf("%w: torn write %s v%d (%d of %d bytes on disk)", ErrStoreFault, patientID, version, n, st.Size())
}
