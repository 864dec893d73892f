package serve

// This file is the transport seam of the serving layer: the pieces a
// session handle uses to reach its shard without knowing whether that
// shard is a goroutine in this process (localTransport, dispatch.go) or
// a shardd process across the network (internal/cluster.Router). The
// contract is deliberately narrow — resolve a patient to a Shard once,
// then push admission-governed Jobs at it — so the zero-alloc local hot
// path and the TCP path share one admission layer and one behavioral
// test suite (internal/serve/servetest).

// Job is one unit of shard input crossing a transport: a sample batch
// (C0/C1), a seizure confirmation, or one of the prefilter kinds — a
// gate declaration, a suppressed-span digest, or an audit-sampled
// window (C0/C1 with Audit set). All kinds flow through the same queue
// so a patient's frames are processed strictly in submission order.
// The shard takes ownership of the slices.
type Job struct {
	Patient string
	C0, C1  []float64
	Confirm bool
	// Declare announces the stream's client-side prefilter to the
	// shard-side audit; Digest reports a span of suppressed windows;
	// Audit marks C0/C1 as a full-rate sample of a suppressed window
	// (stage-2 audit replay, not session ingest).
	Declare *PrefilterConfig
	Digest  *Digest
	Audit   bool
	// Stream observes per-stream outcomes for the handle that produced
	// the job (shed counts on discard; windows/alarms on local
	// processing). Nil for jobs without an attached handle.
	Stream StreamObserver
}

// StreamObserver receives per-stream attribution from the shard side of
// a transport. *Stream implements it for local handles; the cluster
// client's handles implement it for jobs queued toward a remote shard.
type StreamObserver interface {
	// NoteShed records one of the stream's accepted batches being
	// discarded (ShedOldest admission, or a cluster transport dropping
	// in-flight jobs when its connection died).
	NoteShed()
	// NoteWindows and NoteAlarms record feature windows classified and
	// alarms raised from the stream's batches. Only the local transport
	// calls these; remote attribution arrives as events instead.
	NoteWindows(n int)
	NoteAlarms(n int)
	// NoteRejected records one of the stream's accepted batches refused
	// by the quality gate before feature extraction. Only the local
	// transport calls it; remote rejections arrive as EventQualityReject
	// events.
	NoteRejected()
}

// QueueHooks observe queue-level outcomes that bypass the caller: jobs
// accepted earlier and then discarded to make room.
type QueueHooks struct {
	// Shed is called for each admitted batch discarded by a ShedOldest
	// admission (per-stream attribution via Job.Stream happens
	// separately).
	Shed func(Job)
	// ConfirmLost is called when a confirmation could not be preserved
	// while shedding — the only loss invisible to the confirming caller.
	ConfirmLost func(Job)
}

// Queue is a bounded shard-input queue governed by an AdmissionPolicy —
// the unit both transports share. The local worker drains its queue
// into sessions; the cluster client drains its per-shard queue into a
// TCP connection. Admission semantics (drop, block, shed) are identical
// on both sides of that split because they act on the Queue, not on
// what consumes it.
type Queue struct {
	jobs  chan Job
	hooks QueueHooks
}

// NewQueue returns a queue holding at most depth jobs (0 = 256).
func NewQueue(depth int, hooks QueueHooks) *Queue {
	if depth <= 0 {
		depth = 256
	}
	return &Queue{jobs: make(chan Job, depth), hooks: hooks}
}

// Offer runs one job through p against this queue: nil when the job was
// placed (possibly after blocking or shedding, per the policy),
// ErrBackpressure when the policy gave up.
func (q *Queue) Offer(p AdmissionPolicy, j Job) error { return p.admit(q, j) }

// FastReject reports whether p would certainly refuse a job right now —
// the cheap overload path, checked before a job is even built. Racy by
// design (the queue may drain concurrently).
func (q *Queue) FastReject(p AdmissionPolicy) bool { return p.fastReject(q) }

// C returns the consumer side of the queue. It is closed by Close.
func (q *Queue) C() <-chan Job { return q.jobs }

// TryRecv pops one queued job without blocking.
func (q *Queue) TryRecv() (Job, bool) {
	select {
	case j, ok := <-q.jobs:
		return j, ok
	default:
		return Job{}, false
	}
}

// Depth returns the number of queued jobs; Cap the queue's bound.
func (q *Queue) Depth() int { return len(q.jobs) }

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return cap(q.jobs) }

// Close closes the consumer channel. No Offer may be in flight or
// follow — owners serialize Close against producers (Server does it
// under its closed-handshake lock).
func (q *Queue) Close() { close(q.jobs) }

// noteShed records an admitted batch discarded to make room: per-stream
// attribution first, then the owner's hook (server counters + event).
func (q *Queue) noteShed(j Job) {
	if j.Stream != nil {
		j.Stream.NoteShed()
	}
	if q.hooks.Shed != nil {
		q.hooks.Shed(j)
	}
}

// noteConfirmLost records a confirmation lost while shedding.
func (q *Queue) noteConfirmLost(j Job) {
	if q.hooks.ConfirmLost != nil {
		q.hooks.ConfirmLost(j)
	}
}

// Shard is one shard's job intake as seen from a session handle. A
// handle resolves its Shard once at Open and then only enqueues.
type Shard interface {
	// Enqueue runs j through p against this shard's queue.
	Enqueue(p AdmissionPolicy, j Job) error
	// Congested reports whether p would certainly refuse a job now —
	// the pre-lock fast path of Stream.Push.
	Congested(p AdmissionPolicy) bool
	// Depth returns the number of jobs waiting on this shard.
	Depth() int
}

// ShardTransport routes patients to shards. The local implementation
// hashes over in-process workers (dispatch.go); the cluster
// implementation (internal/cluster.Router) rendezvous-hashes over
// healthy shardd TCP connections with reconnect and failover.
type ShardTransport interface {
	// Shard resolves a patient to their shard. Resolution happens once
	// per Open so the per-batch path is routing-free; it fails only
	// when no shard can currently accept the patient (a cluster with
	// every backend down).
	Shard(patientID string) (Shard, error)
	// Depth returns the total number of jobs waiting across shards.
	Depth() int
	// Close releases the transport's shards. For the local transport
	// this drains and stops the worker pool.
	Close()
}

// QueueShard adapts a bare Queue into a Shard — the building block
// remote transports wrap around their outbound queues, and the harness
// the shared admission suite runs against.
func QueueShard(q *Queue) Shard { return queueShard{q} }

type queueShard struct{ q *Queue }

func (s queueShard) Enqueue(p AdmissionPolicy, j Job) error { return s.q.Offer(p, j) }
func (s queueShard) Congested(p AdmissionPolicy) bool       { return s.q.FastReject(p) }
func (s queueShard) Depth() int                             { return s.q.Depth() }
