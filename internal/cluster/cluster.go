// Package cluster is the cross-process serving transport: it runs the
// multi-patient workload of internal/serve across N shardd worker
// processes instead of N goroutines, behind the same ShardTransport
// seam the in-process worker pool implements.
//
// The Router owns one connection per shardd address. Patients map to
// backends by rendezvous (highest-random-weight) hashing over the
// currently healthy set, so losing one backend reroutes only that
// backend's patients and recovering it routes exactly those patients
// home again. Each connection runs a manage loop — dial, version
// handshake, ping health probe, teardown, reconnect with backoff — and
// drains a per-shard serve.Queue onto the socket, which is how the
// local admission policies (drop / block / shed) govern the client
// side of the wire byte-for-byte as they govern a worker queue.
//
// What crosses the wire is the transport Job stream in one direction
// (sample batches and confirmations, in per-patient order) and the
// merged observability stream in the other (alarm / retrain / eviction
// / shed events, plus stats snapshots on request). Per-patient
// determinism survives the split: one patient maps to one shardd, the
// socket preserves order, and the shardd side is a stock serve.Server —
// so cluster predictions are bit-identical to a single process serving
// the same batches (pinned by TestClusterMatchesSingleProcess).
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selflearn/internal/serve"
)

// ErrNoShards is returned when no healthy shard can take a patient —
// every configured backend is down or still connecting.
var ErrNoShards = errors.New("cluster: no healthy shards")

// ErrShardDown is returned by a shard handle whose backend connection
// is currently down; the stream re-resolves on the next push.
var ErrShardDown = errors.New("cluster: shard connection down")

// Options tune the cluster client. The zero value of every field
// selects a sensible default.
type Options struct {
	// QueueDepth bounds each shard's outbound queue (default 256) — the
	// queue the admission policy governs, exactly like a worker queue.
	QueueDepth int
	// Admission is the default policy on full outbound queues
	// (default serve.DropOnFull()). Streams may override per handle.
	Admission serve.AdmissionPolicy
	// DialTimeout bounds one connection attempt (default 3 s).
	DialTimeout time.Duration
	// PingInterval is the health-probe period (default 1 s);
	// PingTimeout is how stale the last pong may grow before the
	// connection is declared dead (default 3×PingInterval).
	PingInterval time.Duration
	PingTimeout  time.Duration
	// ReconnectBackoff is the initial retry delay after a failed dial,
	// doubling up to 8× (default 100 ms).
	ReconnectBackoff time.Duration
	// EventBuffer sizes the merged event channel (default 1024). A
	// consumer lagging this far behind loses events, counted in
	// Stats.EventsDropped.
	EventBuffer int
	// StatsTimeout bounds one backend's stats reply, and one model
	// request during a failover checkpoint transfer (default 2 s).
	StatsTimeout time.Duration
	// WriteDeadline bounds one socket write on both sides of the
	// protocol — every router frame batch, every shard reply and event
	// flush, and the server side of the handshake — so a peer that
	// stops reading cannot wedge a writer forever (default 10 s).
	WriteDeadline time.Duration
	// ReadIdleTimeout bounds how long a ShardServer waits for the next
	// frame from a connected client before reaping the connection
	// (default 2 m). A half-open client — peer host gone, no FIN ever
	// sent — would otherwise pin its handler goroutine and per-patient
	// stream handles forever. Routers ping every PingInterval, so any
	// live client refreshes the deadline orders of magnitude faster
	// than it expires. Read by ShardServer only.
	ReadIdleTimeout time.Duration
	// Dialer overrides how cluster connections are established, for
	// both the Router's shard connections and the shard-side
	// replicator's checkpoint pushes (default net.DialTimeout over
	// TCP). The fault-injection layer plugs in here: internal/fault's
	// Injector.Dial satisfies this signature and wraps every
	// connection in its fault plan.
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Replication configures shard-side checkpoint replication; nil
	// disables it. Read by ShardServer only — routers ignore it.
	Replication *ReplicationConfig
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Admission == nil {
		o.Admission = serve.DropOnFull()
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.PingInterval <= 0 {
		o.PingInterval = time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 3 * o.PingInterval
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 1024
	}
	if o.StatsTimeout <= 0 {
		o.StatsTimeout = 2 * time.Second
	}
	if o.WriteDeadline <= 0 {
		o.WriteDeadline = 10 * time.Second
	}
	if o.ReadIdleTimeout <= 0 {
		o.ReadIdleTimeout = 2 * time.Minute
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// Router is the client side of cluster mode: it implements
// serve.ShardTransport over TCP connections to shardd processes and
// offers the same Open/Events/Snapshot/Close surface as a local
// serve.Server, so a replay harness drives either interchangeably.
type Router struct {
	opts   Options
	shards []*shardConn
	start  time.Time

	// epoch increments on every health transition; streams revalidate
	// their cached shard when it moves, which is how failover reroutes
	// live handles without a lock on the push path.
	epoch atomic.Uint64

	events        chan serve.Event
	eventSeq      atomic.Uint64
	eventsDropped atomic.Uint64

	// modelVersions is the router's view of each patient's latest model
	// version, fed by ModelAnnounce frames and EventModelUpdated events
	// from every connected shard. It is what failover compares against:
	// a re-resolved stream resumes only after its new shard serves at
	// least this version (replica-first, ModelGet fallback).
	modelMu       sync.Mutex
	modelVersions map[string]uint64

	mu     sync.RWMutex // guards closed against in-flight Open/Push
	closed bool

	// Client-side counters cover exactly what the shards cannot see:
	// admission refusals, jobs lost in transit, handle churn. Accepted
	// batches and confirms are counted where they are served — the
	// shard's Stats are authoritative and Snapshot sums them.
	streamsOpen      atomic.Int64
	batchesDropped   atomic.Uint64
	batchesShed      atomic.Uint64
	confirmsRejected atomic.Uint64
	confirmsDropped  atomic.Uint64
	statsToken       atomic.Uint64
}

// Dial starts a router over the given shardd addresses. Connections
// come up asynchronously — use WaitReady to block until the fleet is
// reachable. The address list is the shard identity space: rendezvous
// hashing runs over these strings, so keep them stable across restarts.
func Dial(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no shard addresses")
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if a == "" {
			return nil, errors.New("cluster: empty shard address")
		}
		if seen[a] {
			return nil, fmt.Errorf("cluster: duplicate shard address %q", a)
		}
		seen[a] = true
	}
	r := &Router{opts: opts.withDefaults(), start: time.Now(), modelVersions: make(map[string]uint64)}
	r.events = make(chan serve.Event, r.opts.EventBuffer)
	r.shards = make([]*shardConn, len(addrs))
	for i, addr := range addrs {
		r.shards[i] = newShardConn(r, addr)
	}
	for _, sc := range r.shards {
		go sc.manage()
	}
	return r, nil
}

// WaitReady blocks until every shard connection is healthy, or fails
// after timeout naming the shards still down.
func (r *Router) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var down []string
		for _, sc := range r.shards {
			if !sc.healthy.Load() {
				down = append(down, sc.addr)
			}
		}
		if len(down) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: shards unreachable after %v: %v", timeout, down)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fnv64 is FNV-1a 64, inlined like the serve shard hash.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rendezvousScore gives each (shard, patient) pair an independent
// uniform weight; the patient routes to the healthy shard with the
// highest. Removing a shard only moves its own patients (they fall to
// their second-highest weight); adding it back moves exactly those
// home. The two FNV hashes are combined through a splitmix64 finalizer:
// hashing the concatenation instead would leave scores for addresses
// differing in one byte strongly correlated — the same shard wins every
// patient and the "cluster" collapses onto one backend.
func rendezvousScore(addr, patient string) uint64 {
	x := fnv64(addr) ^ (fnv64(patient) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rendezvousLess is the one ordering rule both rankings share: higher
// score wins, ties (astronomically rare with 64-bit scores, but the
// replica placement and the routing MUST agree) break toward the
// lexically smaller address. replicator.target sorts the whole fleet
// with it; pick takes its argmax over the healthy subset.
func rendezvousLess(addrA string, scoreA uint64, addrB string, scoreB uint64) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	return addrA < addrB
}

// pick resolves a patient to the healthy shard winning the rendezvous.
func (r *Router) pick(patient string) (*shardConn, error) {
	var best *shardConn
	var bestScore uint64
	for _, sc := range r.shards {
		if !sc.healthy.Load() {
			continue
		}
		score := rendezvousScore(sc.addr, patient)
		if best == nil || rendezvousLess(sc.addr, score, best.addr, bestScore) {
			best, bestScore = sc, score
		}
	}
	if best == nil {
		return nil, ErrNoShards
	}
	return best, nil
}

// Shard implements serve.ShardTransport.
func (r *Router) Shard(patientID string) (serve.Shard, error) {
	return r.pick(patientID)
}

// Depth implements serve.ShardTransport: jobs waiting in outbound
// queues on this client (remote queue depths appear in Snapshot).
func (r *Router) Depth() int {
	depth := 0
	for _, sc := range r.shards {
		depth += sc.queue.Depth()
	}
	return depth
}

// Events returns the merged event stream of every connected shard plus
// the client's own shed events, re-sequenced into one order. The
// channel closes after Close. Delivery is at-most-once: a lagging
// consumer or a dying connection loses events (counted in
// Stats.EventsDropped), so counters — not events — are the ledger.
func (r *Router) Events() <-chan serve.Event { return r.events }

// emit re-stamps and forwards one event without ever blocking a
// connection's read loop.
func (r *Router) emit(ev serve.Event) {
	ev.Seq = r.eventSeq.Add(1)
	select {
	case r.events <- ev:
	default:
		r.eventsDropped.Add(1)
	}
}

// noteModelVersion max-merges one shard's announced model version into
// the router's per-patient table.
func (r *Router) noteModelVersion(patient string, version uint64) {
	if patient == "" || version == 0 {
		return
	}
	r.modelMu.Lock()
	if version > r.modelVersions[patient] {
		r.modelVersions[patient] = version
	}
	r.modelMu.Unlock()
}

// ModelVersions snapshots the router's per-patient model version table:
// the latest version any connected shard has announced serving. A
// patient absent from the map has never had a model announced this
// session.
func (r *Router) ModelVersions() map[string]uint64 {
	r.modelMu.Lock()
	defer r.modelMu.Unlock()
	out := make(map[string]uint64, len(r.modelVersions))
	for p, v := range r.modelVersions {
		out[p] = v
	}
	return out
}

// warmTransfer moves a patient's latest checkpoint onto their new shard
// before the first post-failover batch, so the patient resumes at the
// same model version instead of cold. Replica-first: when shard-side
// replication already placed the checkpoint on the target (the normal
// case — the failover target is exactly the next-in-line shard replicas
// go to), the version probe confirms it and nothing is transferred.
// Otherwise the healthy fleet is swept for the freshest copy (ModelGet)
// and it is pushed to the target (ModelPut). Best-effort: a transfer
// that cannot complete leaves the patient serving at whatever the
// target has — exactly today's cold-failover behavior, never worse.
func (r *Router) warmTransfer(patient string, target *shardConn) {
	r.modelMu.Lock()
	want := r.modelVersions[patient]
	r.modelMu.Unlock()
	if want == 0 {
		return // never saw a model for this patient; nothing to move
	}
	timeout := r.opts.StatsTimeout
	have, _, err := target.modelGet(patient, timeout)
	if err == nil && have >= want {
		return // replica already in place at (at least) the wanted version
	}
	if err != nil {
		have = 0
	}
	// The fallback sweep runs under one total budget, not one timeout
	// per shard: resolve() — and the Push waiting behind it — is stalled
	// while this runs, and a large fleet of half-dead peers (reachable
	// but partitioned, so every modelGet times out) must not stack N
	// timeouts onto a patient's failover. When the budget runs out the
	// transfer fails open: the patient resumes at whatever the target
	// holds — locally-untrained serving at worst, never a stuck stream.
	sweepDeadline := time.Now().Add(2 * timeout)
	bestV, bestData := have, []byte(nil)
	for _, sc := range r.shards {
		if sc == target || !sc.healthy.Load() {
			continue
		}
		remaining := time.Until(sweepDeadline)
		if remaining <= 0 {
			break
		}
		v, data, err := sc.modelGet(patient, min(timeout, remaining))
		if err != nil || v <= bestV || len(data) == 0 {
			continue
		}
		bestV, bestData = v, data
	}
	if bestData == nil {
		return // no surviving shard holds anything fresher
	}
	target.modelPut(patient, bestV, bestData)
}

// lostJob accounts for an accepted job discarded in transit — cleared
// from a dead connection's queue or failed mid-write. Batches count as
// shed (the caller saw success; freshest-data-wins applies); lost
// confirmations count like learner-queue drops, the only loss class
// invisible to the caller.
func (r *Router) lostJob(j serve.Job) {
	if j.Confirm {
		r.confirmsDropped.Add(1)
		return
	}
	r.batchesShed.Add(1)
	if j.Stream != nil {
		j.Stream.NoteShed()
	}
	r.emit(serve.Event{Kind: serve.EventShed, Patient: j.Patient, Time: time.Now()})
}

// Snapshot merges the fleet's stats: every healthy shard is polled for
// its serve.Stats and the counters are summed, then the client-side
// view is layered in — outbound queue depth, admission drops, transit
// sheds, open handles, event-merge drops, and this client's uptime.
// Unreachable shards contribute nothing (their counters reappear when
// they do). Serving counters (Windows, Alarms, Confirms, Retrains…)
// are therefore authoritative from the shards; client counters cover
// exactly what shards cannot see.
func (r *Router) Snapshot() serve.Stats {
	// Poll the fleet concurrently: a stalled-but-not-yet-dead backend
	// costs one StatsTimeout total, not one per shard.
	replies := make([]*serve.Stats, len(r.shards))
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		if !sc.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			if st, err := sc.stats(r.opts.StatsTimeout); err == nil {
				replies[i] = &st
			}
		}(i, sc)
	}
	wg.Wait()
	var agg serve.Stats
	for _, st := range replies {
		if st == nil {
			continue
		}
		agg.Sessions += st.Sessions
		agg.SessionsCreated += st.SessionsCreated
		agg.SessionsEvicted += st.SessionsEvicted
		agg.Batches += st.Batches
		agg.BatchesDropped += st.BatchesDropped
		agg.BatchesShed += st.BatchesShed
		agg.QualityRejected += st.QualityRejected
		agg.Windows += st.Windows
		agg.WindowsPerSec += st.WindowsPerSec
		agg.Alarms += st.Alarms
		agg.Confirms += st.Confirms
		agg.ConfirmsRejected += st.ConfirmsRejected
		agg.ConfirmsDropped += st.ConfirmsDropped
		agg.Retrains += st.Retrains
		agg.RetrainErrors += st.RetrainErrors
		agg.StreamErrors += st.StreamErrors
		agg.ModelsCached += st.ModelsCached
		agg.StoreErrors += st.StoreErrors
		agg.WindowsSuppressed += st.WindowsSuppressed
		agg.AuditSamples += st.AuditSamples
		agg.AuditDisagreements += st.AuditDisagreements
		agg.PrefilterDrift += st.PrefilterDrift
		agg.EventsDropped += st.EventsDropped
		agg.QueueDepth += st.QueueDepth
	}
	agg.StreamsOpen = int(r.streamsOpen.Load())
	agg.BatchesDropped += r.batchesDropped.Load()
	agg.BatchesShed += r.batchesShed.Load()
	agg.ConfirmsRejected += r.confirmsRejected.Load()
	agg.ConfirmsDropped += r.confirmsDropped.Load()
	agg.EventsDropped += r.eventsDropped.Load()
	agg.QueueDepth += r.Depth()
	agg.Uptime = time.Since(r.start)
	return agg
}

// UplinkBytes totals the framed job bytes (pushes, digests, audit
// samples, confirms, prefilter declarations — not pings or stats
// traffic) this router has put on the wire across every shard
// connection. With a prefiltering client it is the numerator of the
// uplink-reduction ratio; the same stream without a prefilter is the
// denominator.
func (r *Router) UplinkBytes() uint64 {
	var n uint64
	for _, sc := range r.shards {
		n += sc.uplinkBytes.Load()
	}
	return n
}

// Close implements serve.ShardTransport: tears down every connection,
// discards queued jobs (counted), and closes the merged event channel.
// Open and Push fail with serve.ErrClosed afterwards. Idempotent.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, sc := range r.shards {
		sc.stopOnce.Do(func() { close(sc.stop) })
	}
	for _, sc := range r.shards {
		<-sc.done
	}
	close(r.events)
}

// Stream is a per-patient cluster session handle with the same
// contract as serve.Stream: Push and Confirm enqueue toward the
// patient's shard under the stream's admission policy, and per-stream
// counters attribute outcomes. The shard is resolved through the
// rendezvous router and cached; a health transition anywhere in the
// fleet revalidates the cache on the next push, which is how failover
// happens mid-stream.
type Stream struct {
	r       *Router
	patient string
	adm     serve.AdmissionPolicy
	closed  atomic.Bool

	resolveMu sync.Mutex
	shard     *shardConn
	epoch     uint64

	batches  atomic.Uint64
	dropped  atomic.Uint64
	shed     atomic.Uint64
	confirms atomic.Uint64
}

// Open returns a handle for streaming patientID's samples to its
// shard. Opening succeeds even while every backend is down — pushes
// report the outage — so gateways can open ahead of connectivity.
func (r *Router) Open(patientID string) (*Stream, error) {
	if patientID == "" {
		return nil, errors.New("cluster: empty patient ID")
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, serve.ErrClosed
	}
	r.streamsOpen.Add(1)
	return &Stream{r: r, patient: patientID, adm: r.opts.Admission}, nil
}

// Patient returns the stream's patient ID.
func (st *Stream) Patient() string { return st.patient }

// NoteShed implements serve.StreamObserver: a queued batch of this
// stream's was discarded (admission shedding or a dying connection).
func (st *Stream) NoteShed() { st.shed.Add(1) }

// NoteWindows implements serve.StreamObserver; remote processing
// reports windows via events and stats, so this is never called.
func (st *Stream) NoteWindows(int) {}

// NoteAlarms implements serve.StreamObserver; see NoteWindows.
func (st *Stream) NoteAlarms(int) {}

// NoteRejected implements serve.StreamObserver; quality rejections
// happen shardd-side and arrive as EventQualityReject events.
func (st *Stream) NoteRejected() {}

// resolve returns the stream's shard, re-running the rendezvous when
// the fleet's health epoch moved or the cached shard went down. A
// resolution that moves the stream to a different shard — failover, or
// routing home after recovery — first transfers the patient's latest
// checkpoint to the new shard (warmTransfer), so the batches that
// follow are classified at the same model version as before the move.
// The transfer completes (its frames are flushed on the new shard's
// socket, and the shard's serial read loop installs the model) before
// this stream's next Push can reach that socket, because both are
// ordered behind resolveMu here.
func (st *Stream) resolve() (*shardConn, error) {
	ep := st.r.epoch.Load()
	st.resolveMu.Lock()
	defer st.resolveMu.Unlock()
	if st.shard != nil && st.epoch == ep && st.shard.healthy.Load() {
		return st.shard, nil
	}
	sc, err := st.r.pick(st.patient)
	if err != nil {
		return nil, err
	}
	if st.shard != nil && sc != st.shard {
		st.r.warmTransfer(st.patient, sc) //selflearn:locked-ok resolveMu orders the transfer ahead of this stream's next Push, per the doc comment
	}
	st.shard, st.epoch = sc, ep
	return sc, nil
}

// enqueue routes one job with serve.Stream's counter semantics. A
// shard that dropped dead between resolve and enqueue is retried once
// against the re-resolved fleet.
func (st *Stream) enqueue(j serve.Job) error {
	st.r.mu.RLock()
	defer st.r.mu.RUnlock()
	if st.r.closed {
		return serve.ErrClosed
	}
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var sc *shardConn
		if sc, err = st.resolve(); err != nil { //selflearn:locked-ok the router read lock is the closed handshake; Close takes the write lock
			break
		}
		if err = sc.Enqueue(st.adm, j); err != ErrShardDown { //selflearn:locked-ok same closed handshake; the queue offer is bounded, not a blocking send
			break
		}
	}
	switch {
	case err == nil && j.Confirm:
		st.confirms.Add(1)
	case err == nil && j.Declare != nil:
		// Declarations are control traffic, not batches.
	case err == nil:
		st.batches.Add(1)
	case j.Confirm:
		st.r.confirmsRejected.Add(1)
	default:
		st.dropped.Add(1)
		st.r.batchesDropped.Add(1)
	}
	return err
}

// Push enqueues one batch of synchronized two-channel samples toward
// the patient's shard. It returns serve.ErrBackpressure when the
// stream's admission policy gives up on a full outbound queue,
// ErrShardDown/ErrNoShards during an outage (the caller owns the
// retry, exactly as with backpressure), and serve.ErrClosed /
// serve.ErrStreamClosed after Close. The router takes ownership of the
// slices.
func (st *Stream) Push(c0, c1 []float64) error {
	if st.closed.Load() {
		return serve.ErrStreamClosed
	}
	if len(c0) != len(c1) {
		return fmt.Errorf("cluster: channel length mismatch %d vs %d", len(c0), len(c1))
	}
	if len(c0) == 0 {
		return nil
	}
	// Cheap overload path, mirroring serve.Stream.Push: a policy that
	// would certainly refuse gets to say so before the job is built.
	if sc, err := st.resolve(); err == nil && sc.Congested(st.adm) {
		st.dropped.Add(1)
		st.r.batchesDropped.Add(1)
		return serve.ErrBackpressure
	}
	return st.enqueue(serve.Job{Patient: st.patient, Stream: st, C0: c0, C1: c1})
}

// DeclarePrefilter announces the stream's client-side stage-1
// prefilter to the patient's shard, mirroring serve.Stream: the shard
// arms its audit mirror from the declaration.
func (st *Stream) DeclarePrefilter(cfg serve.PrefilterConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if st.closed.Load() {
		return serve.ErrStreamClosed
	}
	c := cfg
	return st.enqueue(serve.Job{Patient: st.patient, Stream: st, Declare: &c})
}

// PushDigest reports a span of suppressed windows to the patient's
// shard, mirroring serve.Stream.PushDigest. Empty digests are accepted
// and ignored.
func (st *Stream) PushDigest(d serve.Digest) error {
	if d.Windows == 0 {
		return nil
	}
	if st.closed.Load() {
		return serve.ErrStreamClosed
	}
	dd := d
	return st.enqueue(serve.Job{Patient: st.patient, Stream: st, Digest: &dd})
}

// PushAudit ships one suppressed window's full samples for shard-side
// stage-2 audit replay, mirroring serve.Stream.PushAudit. The router
// takes ownership of the slices.
func (st *Stream) PushAudit(c0, c1 []float64) error {
	if st.closed.Load() {
		return serve.ErrStreamClosed
	}
	if len(c0) != len(c1) {
		return fmt.Errorf("cluster: channel length mismatch %d vs %d", len(c0), len(c1))
	}
	if len(c0) == 0 {
		return nil
	}
	return st.enqueue(serve.Job{Patient: st.patient, Stream: st, C0: c0, C1: c1, Audit: true})
}

// Confirm reports the patient's seizure confirmation to their shard,
// where it schedules a-posteriori labeling and retraining.
func (st *Stream) Confirm() error {
	if st.closed.Load() {
		return serve.ErrStreamClosed
	}
	return st.enqueue(serve.Job{Patient: st.patient, Stream: st, Confirm: true})
}

// Stats snapshots this handle's client-side counters. Windows and
// Alarms are served remotely and arrive via events and Snapshot, so
// they read 0 here.
func (st *Stream) Stats() serve.StreamStats {
	return serve.StreamStats{
		Patient:        st.patient,
		Batches:        st.batches.Load(),
		BatchesDropped: st.dropped.Load(),
		BatchesShed:    st.shed.Load(),
		Confirms:       st.confirms.Load(),
	}
}

// Close invalidates the handle; queued batches still flow. Idempotent.
func (st *Stream) Close() {
	if !st.closed.Swap(true) {
		st.r.streamsOpen.Add(-1)
	}
}
