// Package serve multiplexes many patients' self-learning seizure
// detection loops over a bounded worker pool — the serving layer that
// turns the paper's single-patient wearable pipeline into a
// multi-tenant backend.
//
// Each patient gets a session owning the streaming feature extractor
// (internal/features.Streamer), the current random-forest window
// classifier (internal/ml/forest) and the alarm layer (internal/rt).
// Callers interact through per-patient Stream handles: Server.Open
// resolves the patient's shard once, and the handle's Push enqueues
// sample batches to that shard, where one goroutine processes the
// stream strictly in order. What happens when a shard queue fills is a
// pluggable AdmissionPolicy (drop, block-with-deadline, or shed-oldest);
// per-patient models sit in a bounded LRU in front of a pluggable
// ModelStore, so trained detectors survive eviction — and, with a
// FileStore, survive restarts. When a patient confirms a seizure
// (Stream.Confirm — the paper's button press), the session's buffered
// feature history is handed to a background learner pool that runs the
// a-posteriori labeling algorithm (internal/core) and retrains the
// forest without stalling the real-time path. Alarms, retrain outcomes
// and session evictions are observable through Events — the paper's
// "alarm to caregivers" as an actual delivery path.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
	"selflearn/internal/signal"
)

// ErrBackpressure is returned by Push and Confirm when the stream's
// admission policy gives up on a full shard queue. The caller owns the
// retry policy: a wearable gateway would buffer locally and resubmit, a
// replay harness may drop.
var ErrBackpressure = errors.New("serve: worker queue full")

// ErrClosed is returned by Open, Push and Confirm after Server.Close.
var ErrClosed = errors.New("serve: server closed")

// Config sizes the serving subsystem. The zero value of every field
// selects a sensible default. Policy objects (model store, admission,
// event delivery) are configured separately via Options to New.
type Config struct {
	// Workers is the number of shard workers; patients are assigned to
	// workers by ID hash. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds each worker's job queue; what happens beyond it
	// is the admission policy's call (default: ErrBackpressure). 0 = 256.
	QueueDepth int
	// MaxSessions caps live sessions per worker; beyond it the least
	// recently used session is evicted (its model survives in the
	// model cache/store). 0 = 1024.
	MaxSessions int
	// Coalesce caps how many ready jobs a worker drains per queue
	// wakeup. Drained jobs from different patients are classified as one
	// cross-patient batch through a shared arena (see dispatch.go);
	// per-patient ordering and attribution are preserved, and windows of
	// the same patient never share a drain. 1 disables coalescing.
	// 0 = 16.
	Coalesce int
	// ModelCacheSize caps the in-memory LRU in front of the model
	// store. 0 = 4096.
	ModelCacheSize int
	// Learners is the size of the background retraining pool. 0 = 2.
	Learners int
	// LearnerQueue bounds pending retrain jobs. 0 = 64.
	LearnerQueue int
	// SampleRate of submitted batches in Hz. 0 = signal.DefaultSampleRate.
	SampleRate float64
	// History is how much feature history each session buffers for
	// a-posteriori labeling (the paper buffers one hour). 0 = 1 h.
	History time.Duration
	// AvgSeizureDuration is W, the expert-provided average seizure
	// length used by the labeling algorithm. 0 = 30 s.
	AvgSeizureDuration time.Duration
	// FeatureCfg configures the streaming 10-feature extractor. Zero
	// value = features.DefaultConfig().
	FeatureCfg features.Config
	// AlarmCfg configures k-of-n alarm smoothing. Zero value =
	// rt.DefaultConfig().
	AlarmCfg rt.Config
	// ForestCfg configures retraining. Zero value = forest.DefaultConfig().
	ForestCfg forest.Config
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.Coalesce <= 0 {
		c.Coalesce = 16
	}
	if c.ModelCacheSize <= 0 {
		c.ModelCacheSize = 4096
	}
	if c.Learners <= 0 {
		c.Learners = 2
	}
	if c.LearnerQueue <= 0 {
		c.LearnerQueue = 64
	}
	if c.SampleRate == 0 {
		c.SampleRate = signal.DefaultSampleRate
	}
	if c.History <= 0 {
		c.History = time.Hour
	}
	if c.AvgSeizureDuration <= 0 {
		c.AvgSeizureDuration = 30 * time.Second
	}
	// Default the feature config only when it is entirely unset; a
	// partially-built config (e.g. a custom Window with Level left 0)
	// must fail loudly in Validate rather than be silently replaced.
	if c.FeatureCfg.Level == 0 && c.FeatureCfg.Window == (signal.WindowSpec{}) {
		c.FeatureCfg = features.DefaultConfig()
	}
	if c.AlarmCfg == (rt.Config{}) {
		c.AlarmCfg = rt.DefaultConfig()
	}
	if c.ForestCfg == (forest.Config{}) {
		c.ForestCfg = forest.DefaultConfig()
	}
	return c
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Sessions is the number of live streaming sessions; StreamsOpen is
	// the number of un-Closed handles returned by Open.
	Sessions    int
	StreamsOpen int
	// SessionsCreated and SessionsEvicted count session table churn.
	SessionsCreated uint64
	SessionsEvicted uint64
	// Batches and BatchesDropped count Pushes accepted and rejected
	// with ErrBackpressure; BatchesShed counts batches accepted but
	// later discarded by a ShedOldest admission to make room.
	Batches        uint64
	BatchesDropped uint64
	BatchesShed    uint64
	// QualityRejected counts accepted batches the quality gate refused
	// before feature extraction (WithQualityGate) — garbage seconds
	// that never burned classifier time. Always 0 without a gate.
	QualityRejected uint64
	// Windows is the number of feature windows classified.
	Windows uint64
	// WindowsPerSec is the classification rate over the interval since
	// the previous Snapshot call (the first call measures since start).
	// Unlike a lifetime average it does not go stale on long-running
	// servers; each Snapshot resets the interval.
	WindowsPerSec float64
	// Alarms is the number of alarms raised across all patients.
	Alarms uint64
	// Confirms counts accepted confirmations; ConfirmsRejected counts
	// Confirm calls refused with ErrBackpressure (the caller saw the
	// error and owns the retry); ConfirmsDropped counts confirmations
	// accepted but then lost inside the server — to a full learner
	// queue, or under ShedOldest to a failed re-enqueue on a saturated
	// shard — the only kind invisible to the caller.
	Confirms         uint64
	ConfirmsRejected uint64
	ConfirmsDropped  uint64
	// Retrains and RetrainErrors count background learner outcomes.
	Retrains      uint64
	RetrainErrors uint64
	// StreamErrors counts sample batches whose feature extraction or
	// session construction failed; nonzero values indicate a
	// configuration problem the pre-flight in New did not cover.
	StreamErrors uint64
	// ModelsCached is the in-memory model LRU occupancy; StoreErrors
	// counts ModelStore load/save failures (treated as cache misses).
	ModelsCached int
	StoreErrors  uint64
	// WindowsSuppressed counts windows a client-side prefilter reported
	// suppressing (via digests) instead of shipping — the uplink seconds
	// the edge/cloud split saved. AuditSamples counts suppressed windows
	// the client shipped at full rate for auditing; AuditDisagreements
	// counts audit checks where the shard disagreed with the client's
	// suppression (a digest amplitude above the declared gate's trigger
	// level, or an audited window stage 2 classified positive);
	// PrefilterDrift counts EventPrefilterDrift emissions (disagreements
	// crossing a stream's declared threshold). All 0 without a declared
	// prefilter.
	WindowsSuppressed  uint64
	AuditSamples       uint64
	AuditDisagreements uint64
	PrefilterDrift     uint64
	// EventsDropped counts events lost to a lagging Events subscriber.
	EventsDropped uint64
	// QueueDepth is the total number of jobs waiting across workers.
	QueueDepth int
	// Uptime since New.
	Uptime time.Duration
}

// Server is the concurrent multi-patient serving subsystem. Its
// streams reach their shards through the local ShardTransport (the
// in-process worker pool); internal/cluster serves the same workload
// shape across shardd processes behind the same interface.
type Server struct {
	cfg       Config
	admission AdmissionPolicy
	quality   *signal.QualityConfig // nil = no quality gate
	transport *localTransport
	learner   *learner
	cache     *modelCache
	hub       *eventHub
	start     time.Time

	mu     sync.RWMutex // guards closed against in-flight Open/Push/Confirm
	closed bool
	// closedFast mirrors closed for lock-free reads on the Push fast
	// paths (set in Close before the workers drain); the mutex remains
	// the authority for the channel-close handshake.
	closedFast atomic.Bool

	// snapMu guards the rate-sampling state behind Stats.WindowsPerSec.
	snapMu      sync.Mutex
	lastSnap    time.Time
	lastWindows uint64
	lastRate    float64

	sessions         atomic.Int64
	streamsOpen      atomic.Int64
	sessionsCreated  atomic.Uint64
	sessionsEvicted  atomic.Uint64
	batches          atomic.Uint64
	batchesDropped   atomic.Uint64
	batchesShed      atomic.Uint64
	qualityRejected  atomic.Uint64
	windows          atomic.Uint64
	alarms           atomic.Uint64
	confirms         atomic.Uint64
	confirmsRejected atomic.Uint64
	confirmsDropped  atomic.Uint64
	retrains         atomic.Uint64
	retrainErrors    atomic.Uint64
	streamErrors     atomic.Uint64
	storeErrors      atomic.Uint64

	windowsSuppressed  atomic.Uint64
	auditSamples       atomic.Uint64
	auditDisagreements atomic.Uint64
	prefilterDrift     atomic.Uint64
}

// New starts a server with cfg's workers and learners running. Options
// plug in the model store, the admission policy, and event delivery.
func New(cfg Config, opts ...Option) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.FeatureCfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.AlarmCfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("serve: invalid sample rate %g", cfg.SampleRate)
	}
	hop := cfg.FeatureCfg.Window.Hop().Seconds()
	historyRows := int(cfg.History.Seconds() / hop)
	if historyRows < 1 {
		return nil, fmt.Errorf("serve: history %v shorter than one hop", cfg.History)
	}
	if err := preflight(cfg); err != nil {
		return nil, err
	}
	so := defaultServerOptions()
	for _, opt := range opts {
		opt(&so)
	}
	if so.quality != nil {
		if err := so.quality.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Server{cfg: cfg, admission: so.admission, quality: so.quality, start: time.Now()}
	s.lastSnap = s.start
	s.hub = newEventHub(so.eventBuffer, so.sink)
	s.cache = newModelCache(cfg.ModelCacheSize, so.store, func(error) { s.storeErrors.Add(1) })
	s.learner = newLearner(s, cfg.Learners, cfg.LearnerQueue)
	t, err := newLocalTransport(s, historyRows)
	if err != nil {
		s.learner.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.transport = t
	return s, nil
}

// preflight extracts one feature window through a throwaway streamer so
// configurations whose failure only surfaces at window boundaries (e.g.
// a sample rate too low for the level-7 DWT) are rejected at
// construction instead of silently erroring on every live batch.
func preflight(cfg Config) error {
	st, err := features.NewStreamer(cfg.SampleRate, cfg.FeatureCfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	win := cfg.FeatureCfg.Window.SamplesPerWindow(cfg.SampleRate)
	for i := 0; i <= win; i++ {
		v := math.Sin(2 * math.Pi * 7 * float64(i) / cfg.SampleRate)
		if _, _, err := st.Push(v, v); err != nil {
			return fmt.Errorf("serve: feature pipeline rejects this configuration: %w", err)
		}
	}
	return nil
}

// shardHash is FNV-1a inlined: the stdlib hash/fnv constructor
// allocates a hasher object per call, which is pure garbage on a path
// that hashes a short string once.
func shardHash(patientID string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(patientID); i++ {
		h ^= uint32(patientID[i])
		h *= 16777619
	}
	return h
}

// enqueue runs one job through the admission policy against the
// stream's shard, maintaining the server-wide accept/reject counters.
// The read lock is the closed handshake: Close takes the write lock
// before closing the shard queues, so no admit is in flight when they
// close.
func (s *Server) enqueue(sh Shard, adm AdmissionPolicy, j Job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	err := sh.Enqueue(adm, j) //selflearn:locked-ok the read lock is the closed handshake documented above
	switch {
	case err == nil && j.Confirm:
		s.confirms.Add(1)
	case err == nil:
		s.batches.Add(1)
	case j.Confirm:
		s.confirmsRejected.Add(1)
	default:
		s.batchesDropped.Add(1)
	}
	return err
}

// Snapshot returns current serving statistics. Snapshot is also the
// rate sampling point: WindowsPerSec covers the interval since the
// previous Snapshot call, so a periodic stats loop sees the current
// rate rather than a lifetime average diluted by hours of history.
func (s *Server) Snapshot() Stats {
	now := time.Now()
	st := Stats{
		Sessions:           int(s.sessions.Load()),
		StreamsOpen:        int(s.streamsOpen.Load()),
		SessionsCreated:    s.sessionsCreated.Load(),
		SessionsEvicted:    s.sessionsEvicted.Load(),
		Batches:            s.batches.Load(),
		BatchesDropped:     s.batchesDropped.Load(),
		BatchesShed:        s.batchesShed.Load(),
		QualityRejected:    s.qualityRejected.Load(),
		Windows:            s.windows.Load(),
		Alarms:             s.alarms.Load(),
		Confirms:           s.confirms.Load(),
		ConfirmsRejected:   s.confirmsRejected.Load(),
		ConfirmsDropped:    s.confirmsDropped.Load(),
		Retrains:           s.retrains.Load(),
		RetrainErrors:      s.retrainErrors.Load(),
		StreamErrors:       s.streamErrors.Load(),
		ModelsCached:       s.cache.Len(),
		StoreErrors:        s.storeErrors.Load(),
		WindowsSuppressed:  s.windowsSuppressed.Load(),
		AuditSamples:       s.auditSamples.Load(),
		AuditDisagreements: s.auditDisagreements.Load(),
		PrefilterDrift:     s.prefilterDrift.Load(),
		EventsDropped:      s.hub.dropped.Load(),
		QueueDepth:         s.transport.Depth(),
		Uptime:             now.Sub(s.start),
	}
	st.WindowsPerSec = s.sampleWindowRate(now)
	return st
}

// sampleWindowRate advances the WindowsPerSec interval sampler to now
// and returns the current rate. The counter is re-sampled under snapMu:
// a sample loaded outside the lock would race with other Snapshot
// callers, and a stale sample underflows the uint64 delta into an
// absurd rate. Under the lock the monotonic counter can only have
// advanced past lastWindows. A non-positive dt — two Snapshots within
// the same clock tick, or clock reads reordered across callers — skips
// the resample and returns the last completed interval's rate, so the
// result is always finite: never the Inf/NaN a naive delta/dt would
// produce, and 0 before any interval has completed.
func (s *Server) sampleWindowRate(now time.Time) float64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if dt := now.Sub(s.lastSnap).Seconds(); dt > 0 {
		windows := s.windows.Load()
		s.lastRate = float64(windows-s.lastWindows) / dt
		s.lastSnap = now
		s.lastWindows = windows
	}
	return s.lastRate
}

// Events returns the server's event stream: every alarm, retrain
// outcome and session eviction, in emission order per shard. The
// channel is closed by Server.Close after all pending work drained, so
// a subscriber can simply range over it. Delivery never blocks serving:
// a subscriber more than the event buffer behind loses events, counted
// in Stats.EventsDropped. All callers share one channel — each event is
// delivered to exactly one receiver.
func (s *Server) Events() <-chan Event {
	return s.hub.events()
}

// Model returns the patient's current trained detector from the model
// cache (reading through to the store), or nil while untrained.
func (s *Server) Model(patientID string) *forest.FlatForest {
	return s.cache.Get(patientID)
}

// ModelVersioned returns the patient's current trained detector and
// its monotonic model version from the model cache (reading through to
// the store), or (nil, 0) while untrained. A checkpoint predating
// versioning reports version 0.
func (s *Server) ModelVersioned(patientID string) (*forest.FlatForest, uint64) {
	return s.cache.GetVersioned(patientID)
}

// InstallModel installs an externally-produced model version for a
// patient — a replica pushed by a peer shard, or a checkpoint a router
// transferred during failover. Only a version strictly newer than
// everything this server has seen installs (so replays and replica
// ping-pong are harmless); an install is checkpointed to the store,
// announced via EventModelUpdated, and picked up by any live session on
// its next batch through the per-batch cache reconcile. Returns whether
// the install took effect.
func (s *Server) InstallModel(patientID string, f *forest.FlatForest, version uint64) bool {
	if patientID == "" || f == nil || version == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	if !s.cache.Install(patientID, f, version) { //selflearn:locked-ok the read lock is the closed handshake; Close's write lock waits installs out
		return false
	}
	s.hub.emit(Event{Kind: EventModelUpdated, Patient: patientID, Version: version}) //selflearn:locked-ok the read lock guarantees no emit after Close's hub.close

	return true
}

// Close drains the worker queues, waits for in-flight retraining to
// finish, closes the Events channel, and releases all sessions. Open,
// Push and Confirm fail with ErrClosed afterwards. A blocking admission
// in flight (BlockWithDeadline) delays Close by at most its deadline.
// Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.closedFast.Store(true)
	s.mu.Unlock()
	s.transport.Close()
	s.learner.close()
	s.hub.close()
}
