// Package cluster is the cross-process serving transport: it runs the
// multi-patient workload of internal/serve across N shardd worker
// processes instead of N goroutines. Its streams enqueue through the
// same serve.Shard seam, serve.Queue and admission policies as the
// in-process worker pool.
//
// The Router hands out serve.Stream handles, the same type a local
// serve.Server returns, each opened on a per-stream route (a
// serve.Shard) that resolves its patient through the fleet. The Router
// owns one connection per shardd address. Patients map to
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
	// Admission is the policy on full outbound queues (default
	// serve.DropOnFull()). Every stream of the router uses it.
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

// Router is the client side of cluster mode: it routes patients to
// shards over TCP connections to shardd processes and offers the same
// Open/Events/Snapshot/Close surface as a local serve.Server — Open
// returns the same *serve.Stream — so a replay harness drives either
// interchangeably.
type Router struct {
	opts   Options
	shards []*shardConn

	// epoch increments on every health transition; streams revalidate
	// their cached shard when it moves, which is how failover reroutes
	// live handles without a lock on the push path.
	epoch atomic.Uint64

	events        chan serve.Event
	eventSeq      atomic.Uint64
	eventsDropped atomic.Uint64

	// modelVersions is the router's view of each patient's latest model
	// version, fed by the EventModelUpdated events of every connected
	// shard. It is what failover compares against:
	// a re-resolved stream resumes only after its new shard serves at
	// least this version (replica-first, ModelGet fallback).
	modelMu       sync.Mutex
	modelVersions map[string]uint64

	// in opens the router's streams and holds the client-side
	// counters of what the shards cannot see: admission refusals and
	// handle churn. batchesShed and confirmsDropped count jobs lost in
	// transit. Accepted batches and confirms are counted where they are
	// served — the shards' Stats are authoritative and Snapshot sums
	// them.
	in              *serve.Intake
	batchesShed     atomic.Uint64
	confirmsDropped atomic.Uint64
	statsToken      atomic.Uint64
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
	r := &Router{opts: opts.withDefaults(), in: serve.NewIntake(opts.Admission), modelVersions: make(map[string]uint64)}
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

// Depth returns the jobs waiting in outbound queues on this client
// (remote queue depths appear in Snapshot).
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
	r.emit(serve.Event{Kind: serve.EventShed, Patient: j.Patient})
}

// Snapshot merges the fleet's stats: every healthy shard is polled for
// its serve.Stats and the snapshots are summed, then the client-side
// view is layered in — outbound queue depth, admission drops, transit
// sheds, event-merge drops, and this client's open handles in place of
// the shards' own.
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
		if st != nil {
			agg.Add(*st)
		}
	}
	client := r.in.Counts()
	agg.Add(serve.Stats{
		BatchesDropped:   client.BatchesDropped,
		BatchesShed:      r.batchesShed.Load(),
		ConfirmsRejected: client.ConfirmsRejected,
		ConfirmsDropped:  r.confirmsDropped.Load(),
		EventsDropped:    r.eventsDropped.Load(),
		QueueDepth:       r.Depth(),
	})
	agg.StreamsOpen = client.StreamsOpen
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

// Close tears down every connection, discards queued jobs (counted),
// and closes the merged event channel.
// Open and Push fail with serve.ErrClosed afterwards. Idempotent.
func (r *Router) Close() {
	if !r.in.Close() {
		return
	}
	for _, sc := range r.shards {
		sc.stopOnce.Do(func() { close(sc.stop) })
	}
	for _, sc := range r.shards {
		<-sc.done
	}
	close(r.events)
}

// Open returns a handle for streaming patientID's samples to its
// shard. Opening succeeds even while every backend is down — pushes
// report the outage (ErrShardDown, ErrNoShards; the caller owns the
// retry, exactly as with backpressure) — so gateways can open ahead of
// connectivity.
func (r *Router) Open(patientID string) (*serve.Stream, error) {
	return r.in.Open(patientID, &route{r: r, patient: patientID})
}

// route is one stream's serve.Shard on the router. The shard is
// resolved through the rendezvous and cached; a health transition
// anywhere in the fleet revalidates the cache on the next push, which
// is how failover happens mid-stream.
type route struct {
	r       *Router
	patient string

	resolveMu sync.Mutex
	shard     *shardConn
	epoch     uint64
}

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
func (ro *route) resolve() (*shardConn, error) {
	ep := ro.r.epoch.Load()
	ro.resolveMu.Lock()
	defer ro.resolveMu.Unlock()
	if ro.shard != nil && ro.epoch == ep && ro.shard.healthy.Load() {
		return ro.shard, nil
	}
	sc, err := ro.r.pick(ro.patient)
	if err != nil {
		return nil, err
	}
	if ro.shard != nil && sc != ro.shard {
		ro.r.warmTransfer(ro.patient, sc) //selflearn:locked-ok resolveMu orders the transfer ahead of this stream's next Push, per the doc comment
	}
	ro.shard, ro.epoch = sc, ep
	return sc, nil
}

// Enqueue implements serve.Shard. A shard that dropped dead between
// resolve and offer is retried once against the re-resolved fleet.
func (ro *route) Enqueue(p serve.AdmissionPolicy, j serve.Job) error {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var sc *shardConn
		if sc, err = ro.resolve(); err != nil {
			return err
		}
		if err = sc.Enqueue(p, j); err != ErrShardDown {
			return err
		}
	}
	return err
}

// Congested implements serve.Shard. A patient no healthy shard can take
// is not congested: Enqueue reports the outage instead.
func (ro *route) Congested(p serve.AdmissionPolicy) bool {
	sc, err := ro.resolve()
	return err == nil && sc.Congested(p)
}
