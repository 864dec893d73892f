package serve

import (
	"container/list"
	"fmt"
	"sync"

	"selflearn/internal/ml/forest"
)

// lru is a fixed-capacity least-recently-used table. It is not safe for
// concurrent use; each owner either confines it to one goroutine (the
// per-worker session table) or wraps it in a mutex (the shared model
// cache).
type lru[V any] struct {
	capacity int
	order    *list.List // front = most recent
	items    map[string]*list.Element
	onEvict  func(key string, v V)
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU builds a table evicting beyond capacity entries; onEvict (may
// be nil) observes each eviction.
func newLRU[V any](capacity int, onEvict func(string, V)) *lru[V] {
	return &lru[V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		onEvict:  onEvict,
	}
}

// Len returns the number of live entries.
func (c *lru[V]) Len() int { return c.order.Len() }

// Get returns the value for key and marks it most recently used.
func (c *lru[V]) Get(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes key and evicts the least recently used entry
// when the table overflows.
func (c *lru[V]) Put(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v})
	for c.capacity > 0 && c.order.Len() > c.capacity {
		c.evictOldest()
	}
}

func (c *lru[V]) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry[V])
	c.order.Remove(el)
	delete(c.items, e.key)
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

// modelEntry is one cached model: the detector plus its monotonic
// per-patient version.
type modelEntry struct {
	f       *forest.FlatForest
	version uint64
}

// modelCache is the shared per-patient model layer: a bounded LRU of
// hot forests in front of the pluggable ModelStore. Trained forests
// outlive their streaming session — and, with a FileStore, the process —
// so a patient whose session was LRU-evicted (or whose server was
// restarted) resumes detection warm instead of re-entering the
// untrained state. The learner writes through: every published model
// lands in both the LRU and the store.
//
// The cache is also the version authority: Publish allocates the next
// monotonic per-patient version (continuing a persisted sequence after
// restarts and LRU evictions via the store), and Install applies
// externally-produced versions — replicas pushed by peer shards — only
// when strictly newer than everything seen. The versions table never
// evicts; it holds one uint64 per patient ever trained this process,
// which is what makes monotonicity cheap off the store path.
//
// Every model the cache holds reads rows of width features, the
// server's feature row: a model of any other width would index past the
// row or misread it. Learner publishes always match; a stored
// checkpoint or an installed replica of another width is refused.
type modelCache struct {
	mu       sync.Mutex
	t        *lru[modelEntry]
	width    int
	versions map[string]uint64 // highest version seen per patient
	store    ModelStore
	// saveMu serializes store writes, which lets saveVersion order them
	// by version without holding mu (the per-batch reconcile lock) over
	// disk I/O. Checkpoint saves happen at retrain/replica rate, far too
	// rarely for one mutex to matter.
	saveMu sync.Mutex
	// onErr observes store Load/Save failures (the serving path treats
	// them as misses rather than stalling on persistence).
	onErr func(error)
}

func newModelCache(capacity, width int, store ModelStore, onErr func(error)) *modelCache {
	return &modelCache{
		t:        newLRU[modelEntry](capacity, nil),
		width:    width,
		versions: make(map[string]uint64),
		store:    store,
		onErr:    onErr,
	}
}

// Get returns the patient's model, reading through to the store on an
// LRU miss, or nil when the patient has never been trained.
func (m *modelCache) Get(patient string) *forest.FlatForest {
	f, _ := m.GetVersioned(patient)
	return f
}

// GetVersioned returns the patient's model and its version, reading
// through to the store on an LRU miss. A pre-versioning checkpoint
// reports version 0. A stored checkpoint of the wrong width is a store
// error, like a corrupt one: the patient streams untrained.
func (m *modelCache) GetVersioned(patient string) (*forest.FlatForest, uint64) {
	m.mu.Lock()
	if e, ok := m.t.Get(patient); ok {
		m.mu.Unlock()
		return e.f, e.version
	}
	m.mu.Unlock()
	if m.store == nil {
		return nil, 0
	}
	f, v, err := m.store.LoadVersion(patient)
	if err == nil && f != nil && f.NumFeatures() != m.width {
		err = fmt.Errorf("serve: model store: checkpoint for %q reads %d features, the server extracts %d",
			patient, f.NumFeatures(), m.width)
	}
	if err != nil {
		if m.onErr != nil {
			m.onErr(err)
		}
		// The model is lost but a salvaged version still anchors the
		// monotonic sequence (see FileStore.LoadVersion).
		m.noteVersion(patient, v)
		return nil, 0
	}
	if f == nil {
		return nil, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check under the lock: if a retrain published while the (slow)
	// store load ran, its forest is newer than the checkpoint we read —
	// keep it rather than clobbering the LRU with the stale load.
	if cur, ok := m.t.Get(patient); ok {
		return cur.f, cur.version
	}
	if v > m.versions[patient] {
		m.versions[patient] = v
	}
	m.t.Put(patient, modelEntry{f: f, version: v})
	return f, v
}

// cached returns the patient's model from the LRU alone — the per-batch
// reconcile path, which must never touch the (possibly on-disk) store.
// Learner publishes always pass through the LRU, so in-process model
// updates are visible here; only cross-restart warm starts need Get.
func (m *modelCache) cached(patient string) *forest.FlatForest {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, _ := m.t.Get(patient)
	return e.f
}

// noteVersion max-merges an externally-observed version into the
// per-patient table.
func (m *modelCache) noteVersion(patient string, v uint64) {
	if v == 0 {
		return
	}
	m.mu.Lock()
	if v > m.versions[patient] {
		m.versions[patient] = v
	}
	m.mu.Unlock()
}

// currentVersion returns the highest version known for the patient,
// consulting the store only when this process has never seen one —
// how a restarted server continues a persisted version sequence
// instead of regressing to 1. A store whose checkpoint is corrupt
// still contributes its salvaged version to the sequence.
func (m *modelCache) currentVersion(patient string) uint64 {
	m.mu.Lock()
	cur := m.versions[patient]
	m.mu.Unlock()
	if cur > 0 || m.store == nil {
		return cur
	}
	_, v, err := m.store.LoadVersion(patient)
	if err != nil && m.onErr != nil {
		m.onErr(err)
	}
	m.noteVersion(patient, v)
	return v
}

// Publish installs a freshly-trained model under the next monotonic
// version, writes it through to the store, and returns the allocated
// version — the learner's checkpoint-save step.
func (m *modelCache) Publish(patient string, f *forest.FlatForest) uint64 {
	if f == nil {
		return 0
	}
	cur := m.currentVersion(patient)
	m.mu.Lock()
	if v := m.versions[patient]; v > cur {
		cur = v // a concurrent publish or install advanced it meanwhile
	}
	version := cur + 1
	m.versions[patient] = version
	m.t.Put(patient, modelEntry{f: f, version: version})
	m.mu.Unlock()
	m.saveVersion(patient, f, version)
	return version
}

// Install applies an externally-produced model version — a replica
// pushed by a peer shard, or a checkpoint transferred by a router
// during failover. Only a version strictly newer than everything seen
// (in cache, table, or store) installs; anything else is a stale
// duplicate and reports false, as does a model of the wrong width.
func (m *modelCache) Install(patient string, f *forest.FlatForest, version uint64) bool {
	if f == nil || version == 0 || f.NumFeatures() != m.width {
		return false
	}
	cur := m.currentVersion(patient)
	m.mu.Lock()
	if v := m.versions[patient]; v > cur {
		cur = v
	}
	if version <= cur {
		m.mu.Unlock()
		return false
	}
	m.versions[patient] = version
	m.t.Put(patient, modelEntry{f: f, version: version})
	m.mu.Unlock()
	m.saveVersion(patient, f, version)
	return true
}

// saveVersion writes one versioned checkpoint through to the store.
// Writes are serialized and version-ordered: a save that lost the race
// to a newer one (a replication Install racing a local Publish, say)
// is skipped rather than letting last-write-wins persist the older
// checkpoint over the newer.
func (m *modelCache) saveVersion(patient string, f *forest.FlatForest, version uint64) {
	if m.store == nil {
		return
	}
	m.saveMu.Lock()
	m.mu.Lock()
	latest := m.versions[patient]
	m.mu.Unlock()
	if version < latest {
		m.saveMu.Unlock()
		return // a newer checkpoint has been (or is being) saved
	}
	err := m.store.SaveVersion(patient, f, version) //selflearn:locked-ok saveMu IS the store-write serialization point
	m.saveMu.Unlock()
	// The error hook runs outside saveMu: it is arbitrary user code (the
	// server routes it into the event hub) and must be free to re-enter
	// the cache or block without wedging every later checkpoint write.
	if err != nil && m.onErr != nil {
		m.onErr(err)
	}
}

// Len returns the number of cached models.
func (m *modelCache) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t.Len()
}
