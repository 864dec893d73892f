package serve

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"

	"selflearn/internal/ml/forest"
)

// ModelStore is the persistence layer behind the in-process model
// cache: trained per-patient detectors outlive LRU eviction — and, with
// a durable implementation, the process itself. The serving layer works
// entirely on the inference-optimized forest.FlatForest; the on-disk
// interchange format is unchanged (see FileStore). Implementations must
// be safe for concurrent use.
//
// Checkpoints carry monotonic per-patient model versions — the identity
// the replication and warm-failover paths key on. Version 0 means
// "pre-versioning checkpoint": LoadVersion must accept checkpoints
// written before versions existed and report them as version 0, so a
// fleet can be upgraded in place. The caller (the model cache) owns
// version allocation; stores only persist what they are told.
type ModelStore interface {
	// LoadVersion returns the patient's checkpointed detector and its
	// version, or (nil, 0, nil) when none is stored. A checkpoint
	// predating versioning loads with version 0.
	LoadVersion(patientID string) (*forest.FlatForest, uint64, error)
	// SaveVersion checkpoints the patient's detector stamped with
	// version, replacing any previous one. Version 0 writes an
	// unversioned (pre-versioning format) checkpoint.
	SaveVersion(patientID string, f *forest.FlatForest, version uint64) error
}

// FileStore persists one JSON forest checkpoint per patient under a
// directory, in the one ml/forest checkpoint format:
// FlatForest.MarshalJSON writes it and forest.LoadFlat reads it, as
// cmd/deploy and cmd/modelinfo do. A server restarted against the same
// directory serves previously-trained patients warm. Writes are atomic
// (temp file + rename), so a crash mid-checkpoint leaves the previous
// one intact.
//
// Versioned checkpoints carry the model version as an extra
// "model_version" field, the JSON object's first, alongside the forest
// fields. LoadFlat skips unknown fields, so a versioned checkpoint
// still loads in those tools; a checkpoint that does not open with the
// field (pre-versioning, or written by pipeline.Session.SaveDetector
// or cmd/deploy) loads here as version 0.
type FileStore struct {
	dir string
}

// NewFileStore creates dir if needed and returns a store rooted there.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: model store: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// path maps a patient ID to its checkpoint file; IDs are URL-escaped so
// arbitrary strings ("ward-3/bed 12") stay within one flat directory.
func (s *FileStore) path(patientID string) string {
	return filepath.Join(s.dir, url.PathEscape(patientID)+".forest.json")
}

// PathFor exposes the patient's checkpoint file path — the seam tooling
// (fault injection's torn-write store, operational scripts) uses to
// reach a checkpoint on disk without re-deriving the escaping rules.
func (s *FileStore) PathFor(patientID string) string { return s.path(patientID) }

// quarantine moves a corrupt checkpoint aside under a name no future
// corruption will reuse, so back-to-back failures never overwrite the
// forensic evidence of an earlier one: the first lands at
// <checkpoint>.corrupt, later ones at <checkpoint>.corrupt.1, .2, …
func (s *FileStore) quarantine(path string) {
	for i := 0; i < 10000; i++ {
		dest := path + ".corrupt"
		if i > 0 {
			dest = fmt.Sprintf("%s.corrupt.%d", path, i)
		}
		if _, err := os.Stat(dest); err == nil {
			continue // already holds an earlier corpse; keep it
		}
		if os.Rename(path, dest) == nil {
			return
		}
	}
	// Quarantine failed (e.g. a read-only directory): remove the bad
	// file as a last resort so the patient is not wedged on a
	// permanently unreadable checkpoint.
	os.Remove(path)
}

// LoadVersion implements ModelStore; a missing checkpoint is
// (nil, 0, nil). A checkpoint that fails to parse — truncated by a
// crash predating atomic writes, or corrupted on disk — is quarantined
// (renamed to a unique <checkpoint>.corrupt* name) rather than left to
// fail every future load: the first LoadVersion reports the error once
// (surfacing in Stats.StoreErrors, with the serving path treating it as
// a miss so the patient streams untrained instead of failing),
// subsequent loads see a clean miss, and the next retrain checkpoints
// normally. The quarantined bytes are kept for forensics.
//
// A corrupt checkpoint still reports any version salvaged from its
// header prefix alongside the error: the caller keeps the monotonic
// sequence even though the model is lost, so the next publish does not
// regress to version 1 — which every replica holder would refuse as
// stale, and which a later failover transfer would then overwrite with
// an older detector.
func (s *FileStore) LoadVersion(patientID string) (*forest.FlatForest, uint64, error) {
	path := s.path(patientID)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: model store: %w", err)
	}
	f, err := forest.LoadFlat(data)
	if err != nil {
		s.quarantine(path)
		return nil, salvageVersion(data), fmt.Errorf("serve: model store: corrupt checkpoint for %q (quarantined): %w", patientID, err)
	}
	return f, salvageVersion(data), nil
}

// salvageVersion reads the model version off a checkpoint's prefix,
// where SaveVersion always writes it, without parsing the rest: a
// sound checkpoint's version costs no second pass over the forest, and
// a checkpoint too corrupt to parse as JSON still reports its version.
// Truncation — the common corruption, a crash mid-write predating
// atomic renames — keeps the prefix intact. A checkpoint that does not
// open with the field (pre-versioning, or written by anything but
// SaveVersion) reads as version 0, wherever else it carries one.
func salvageVersion(data []byte) uint64 {
	const prefix = `{"model_version":`
	if !bytes.HasPrefix(data, []byte(prefix)) {
		return 0
	}
	var v uint64
	for _, c := range data[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

// SaveVersion implements ModelStore: the version is stamped into
// the checkpoint's JSON header, so it survives restarts and crosses to
// any peer the file is replicated to.
func (s *FileStore) SaveVersion(patientID string, f *forest.FlatForest, version uint64) error {
	if f == nil {
		return fmt.Errorf("serve: nil model for %q", patientID)
	}
	data, err := f.MarshalJSON()
	if err != nil {
		return fmt.Errorf("serve: model store: %w", err)
	}
	if version > 0 {
		data = stampVersion(data, version)
	}
	tmp, err := os.CreateTemp(s.dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("serve: model store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: model store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: model store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(patientID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: model store: %w", err)
	}
	return nil
}

// stampVersion splices a model_version field into the front of a
// marshaled forest object. The forest marshaler always emits a JSON
// object, so the first byte is '{'; writing the field first keeps the
// header readable with a bounded prefix read.
func stampVersion(forestJSON []byte, version uint64) []byte {
	out := make([]byte, 0, len(forestJSON)+32)
	out = append(out, fmt.Sprintf(`{"model_version":%d,`, version)...)
	return append(out, forestJSON[1:]...)
}
