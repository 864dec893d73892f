package serve

import (
	"sync/atomic"
	"time"
)

// EventKind discriminates the server's delivery-path events.
type EventKind int

const (
	// EventAlarm is one raised seizure alarm — the paper's "alarm to
	// caregivers", finally observable by a caller.
	EventAlarm EventKind = iota
	// EventRetrain reports a completed background retrain; Err is
	// non-nil when labeling or training failed.
	EventRetrain
	// EventEviction reports a session LRU-evicted under load. The
	// patient's trained model survives in the model cache/store.
	EventEviction
	// EventShed reports an accepted batch discarded to make room — a
	// ShedOldest admission clearing a full shard queue, or a cluster
	// transport dropping in-flight jobs when a shard connection died.
	// The victim stream saw no error (its Push had already succeeded),
	// so this event is how operators observe shedding.
	EventShed
	// EventModelUpdated reports a new model version entering the
	// patient's serving path — a learner publish after retraining, or a
	// replica installed from a peer shard. Event.Version carries the
	// monotonic per-patient model version; the cluster layer keys
	// checkpoint replication and warm failover off this event.
	EventModelUpdated
	// EventQualityReject reports an accepted batch refused by the
	// quality gate (WithQualityGate) before feature extraction —
	// electrode dropout or a saturating artifact made the second
	// unusable. The pushing caller saw no error (its Push had already
	// succeeded); this event and Stats.QualityRejected are how garbage
	// input is observed.
	EventQualityReject
	// EventPrefilterDrift reports that a stream's client-side prefilter
	// (a declared stage-1 amplitude gate suppressing uplink windows) has
	// disagreed with the shard's audit beyond the stream's declared
	// threshold: digests carried amplitudes the declared gate should
	// have shipped, or audited full-rate samples that stage 2 classified
	// positive. It means stage-1 suppression may be costing sensitivity
	// — the condition the edge/cloud split promises never to hide.
	EventPrefilterDrift
	// EventAuditRequest asks a prefiltering client that declared no
	// proactive sampling (AuditEvery 0) to ship its next suppressed
	// window at full rate so the shard can audit what stage 1 drops.
	// Carried over the wire as a dedicated AuditRequest frame rather
	// than a generic event.
	EventAuditRequest
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventAlarm:
		return "alarm"
	case EventRetrain:
		return "retrain"
	case EventEviction:
		return "eviction"
	case EventShed:
		return "shed"
	case EventModelUpdated:
		return "model-updated"
	case EventQualityReject:
		return "quality-reject"
	case EventPrefilterDrift:
		return "prefilter-drift"
	case EventAuditRequest:
		return "audit-request"
	default:
		return "unknown"
	}
}

// Event is one delivery-path occurrence: an alarm raised for a patient,
// a background retrain finishing, or a session eviction.
type Event struct {
	Kind    EventKind
	Patient string
	// Time is when the event was emitted (server clock).
	Time time.Time
	// Seq orders events across the whole server.
	Seq uint64
	// Version carries the monotonic per-patient model version of an
	// EventModelUpdated; 0 otherwise.
	Version uint64
	// StreamTime is the patient's stream time in seconds at which an
	// EventAlarm fired — the alarm window's index times the hop, the
	// same clock rt.Alarm.Time runs on. Unlike the wall-clock Time it
	// is deterministic for a deterministic input stream, which is what
	// lets a replay harness score detections against ground-truth
	// seizure intervals. 0 for other kinds.
	StreamTime float64
	// Err carries the failure of an EventRetrain; nil otherwise.
	Err error
}

// eventHub fans events out to the subscriber channel and the optional
// synchronous sink. Delivery never blocks the serving path: when the
// subscriber lags behind the buffer, events are dropped and counted.
type eventHub struct {
	ch         chan Event
	sink       func(Event)
	subscribed atomic.Bool
	seq        atomic.Uint64
	dropped    atomic.Uint64
}

func newEventHub(buffer int, sink func(Event)) *eventHub {
	return &eventHub{ch: make(chan Event, buffer), sink: sink}
}

// emit stamps and delivers ev. The channel only receives events once a
// subscriber exists (Events was called); before that, events reach the
// sink alone rather than silently filling the buffer.
func (h *eventHub) emit(ev Event) {
	ev.Seq = h.seq.Add(1)
	ev.Time = time.Now()
	if h.sink != nil {
		h.sink(ev)
	}
	if !h.subscribed.Load() {
		return
	}
	select {
	case h.ch <- ev:
	default:
		h.dropped.Add(1)
	}
}

// events returns the subscriber channel, activating channel delivery.
func (h *eventHub) events() <-chan Event {
	h.subscribed.Store(true)
	return h.ch
}

// close ends the subscriber channel; emit must not be called after.
func (h *eventHub) close() { close(h.ch) }
