package serve

import (
	"fmt"
	"time"
)

// AdmissionPolicy decides what happens when a shard queue is full. The
// zero-configuration default is DropOnFull — the wearable gateway owns
// the retry. Policies are picked per server (WithAdmission) or per
// cluster client (cluster.Options.Admission); the set is closed over
// this package's Queue internals, so every transport — the in-process
// worker pool and the cluster client's per-shard senders — shares one
// admission implementation.
type AdmissionPolicy interface {
	// admit places j on q or returns ErrBackpressure. On the local
	// transport it runs under the server's read lock, so it may block
	// only briefly (blocking delays Close by at most the policy's
	// deadline).
	admit(q *Queue, j Job) error
	// fastReject reports whether a batch push may be refused before the
	// job is even built — the cheap overload path. Only policies whose
	// admit would certainly refuse a full queue return true; the check
	// is racy (the queue may drain concurrently), which a caller of such
	// a policy must tolerate anyway. It runs outside any lock and must
	// not block.
	fastReject(q *Queue) bool
}

// ParseAdmission returns the policy a configuration names: "drop"
// (DropOnFull), "block" (BlockWithDeadline(0), which waits for queue
// space indefinitely) or "shed" (ShedOldest).
func ParseAdmission(name string) (AdmissionPolicy, error) {
	switch name {
	case "drop":
		return DropOnFull(), nil
	case "block":
		return BlockWithDeadline(0), nil
	case "shed":
		return ShedOldest(), nil
	}
	return nil, fmt.Errorf("serve: unknown admission %q (want drop, block or shed)", name)
}

// DropOnFull rejects immediately when the shard queue is full — the
// original non-blocking behavior. Lowest latency jitter: the caller
// sees ErrBackpressure and owns buffering.
func DropOnFull() AdmissionPolicy { return dropOnFull{} }

type dropOnFull struct{}

func (dropOnFull) admit(q *Queue, j Job) error {
	select {
	case q.jobs <- j:
		return nil
	default:
		return ErrBackpressure
	}
}

// fastReject short-circuits a full queue: under sustained overload the
// retry loop of every gateway hammers Push, and rejecting before the
// lock and the job copy keeps that spin from stealing the very worker
// time that would drain the queue.
func (dropOnFull) fastReject(q *Queue) bool {
	return len(q.jobs) == cap(q.jobs)
}

// BlockWithDeadline waits up to d for queue space before giving up with
// ErrBackpressure — smoothing short bursts without unbounded blocking.
// A non-positive d blocks until space frees (use with care: it also
// delays Close by the same wait).
func BlockWithDeadline(d time.Duration) AdmissionPolicy { return blockWithDeadline{d: d} }

type blockWithDeadline struct{ d time.Duration }

// fastReject never triggers: a full queue is exactly when this policy
// wants to block.
func (blockWithDeadline) fastReject(*Queue) bool { return false }

func (p blockWithDeadline) admit(q *Queue, j Job) error {
	select {
	case q.jobs <- j:
		return nil
	default:
	}
	if p.d <= 0 {
		q.jobs <- j
		return nil
	}
	t := time.NewTimer(p.d)
	defer t.Stop()
	select {
	case q.jobs <- j:
		return nil
	case <-t.C:
		return ErrBackpressure
	}
}

// ShedOldest makes room for the new batch by discarding the oldest
// queued batches on the shard — freshest-data-wins, the right policy
// when stale EEG seconds are worthless once newer ones arrived. The
// shard queue is shared by every patient hashed to it, so shedding
// discards the oldest batches regardless of which stream pushed them:
// an already-accepted Push can vanish with no error to its caller,
// surfacing in Stats.BatchesShed, the victim stream's
// StreamStats.BatchesShed, and an EventShed on the event stream.
// Confirmations are never shed: any encountered while clearing space
// are re-enqueued behind the new batch.
func ShedOldest() AdmissionPolicy { return shedOldest{} }

type shedOldest struct{}

// fastReject never triggers: a full queue is exactly when this policy
// sheds to make room.
func (shedOldest) fastReject(*Queue) bool { return false }

func (shedOldest) admit(q *Queue, j Job) error {
	// pending holds jobs awaiting (re-)placement, oldest first: popped
	// confirmations are prepended so they re-enter the queue ahead of
	// the new job — a confirmation may drift a few batches later than
	// it arrived (harmless: retraining snapshots history at processing
	// time), but it is never discarded. The new job stays last.
	pending := []Job{j}
	// pops bounds queue-clearing work so concurrent shedders cannot
	// livelock each other; sends are not bounded — each one strictly
	// shrinks pending.
	pops := 0
	for len(pending) > 0 {
		select {
		case q.jobs <- pending[0]:
			pending = pending[1:]
			continue
		default:
		}
		if pops > cap(q.jobs)+2 {
			break
		}
		pops++
		select {
		case old := <-q.jobs:
			if old.Confirm {
				pending = append([]Job{old}, pending...)
			} else {
				q.noteShed(old)
			}
		default:
			// The consumer drained the queue between probes; retry the send.
		}
	}
	if len(pending) == 0 {
		return nil
	}
	// Pop budget exhausted (a queue saturated with confirmations, or
	// heavy contention): the new job — always pending's last element —
	// is refused; any confirmation still unplaced gets one last
	// best-effort re-enqueue before being counted as lost.
	for _, c := range pending[:len(pending)-1] {
		select {
		case q.jobs <- c:
		default:
			q.noteConfirmLost(c)
		}
	}
	return ErrBackpressure
}
