// Package servetest holds the transport-level behavioral suite for the
// serving layer's admission policies. The suite exercises a
// serve.Shard — the seam a session handle enqueues through — so every
// transport implementation (the in-process worker queue and the
// cluster client's per-shard TCP senders) proves the same drop, block
// and shed semantics against one set of assertions.
package servetest

import (
	"testing"
	"time"

	"selflearn/internal/serve"
)

// Harness is one transport's shard under test. The suite needs
// exclusive control of the drain side, so implementations hand over a
// shard whose queue nothing else consumes, plus a Drain that pops one
// queued job the way the transport's consumer would.
type Harness struct {
	Shard serve.Shard
	Drain func() (serve.Job, bool)
}

// RunAdmissionSuite runs the shared admission-policy suite. mk must
// return a fresh idle harness whose shard queue holds at most depth
// jobs and has no concurrent consumer. The suite doubles as a leak
// gate: every goroutine a harness spawns (workers, manage loops,
// drain helpers) must be gone once its cleanup has run.
func RunAdmissionSuite(t *testing.T, mk func(t *testing.T, depth int) Harness) {
	CheckGoroutines(t)
	batch := func(patient string, st *serve.Stream) serve.Job {
		return serve.Job{Patient: patient, C0: []float64{0}, C1: []float64{0}, Stream: st}
	}
	// open returns a real handle on h's shard, so shed attribution is
	// read back through the handle's own Stats.
	open := func(t *testing.T, h Harness, patient string) *serve.Stream {
		t.Helper()
		st, err := serve.NewIntake(nil).Open(patient, h.Shard)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	confirm := func(patient string) serve.Job {
		return serve.Job{Patient: patient, Confirm: true}
	}

	t.Run("DropOnFullRejectsWhenFull", func(t *testing.T) {
		h := mk(t, 2)
		p := serve.DropOnFull()
		for i := 0; i < 2; i++ {
			if err := h.Shard.Enqueue(p, batch("p", nil)); err != nil {
				t.Fatalf("enqueue %d on empty shard = %v", i, err)
			}
		}
		if err := h.Shard.Enqueue(p, batch("p", nil)); err != serve.ErrBackpressure {
			t.Fatalf("enqueue on full shard = %v, want ErrBackpressure", err)
		}
		if !h.Shard.Congested(p) {
			t.Fatal("Congested(DropOnFull) = false on a full queue")
		}
		if _, ok := h.Drain(); !ok {
			t.Fatal("drain on a full queue returned nothing")
		}
		if err := h.Shard.Enqueue(p, batch("p", nil)); err != nil {
			t.Fatalf("enqueue after drain = %v, want nil", err)
		}
	})

	t.Run("CongestedOnlyUnderDrop", func(t *testing.T) {
		// Block and shed policies handle a full queue themselves; their
		// fast path must never short-circuit a push.
		h := mk(t, 1)
		if err := h.Shard.Enqueue(serve.DropOnFull(), batch("p", nil)); err != nil {
			t.Fatal(err)
		}
		if h.Shard.Congested(serve.BlockWithDeadline(time.Second)) {
			t.Fatal("Congested(BlockWithDeadline) = true; blocking policies must reach admit")
		}
		if h.Shard.Congested(serve.ShedOldest()) {
			t.Fatal("Congested(ShedOldest) = true; shedding policies must reach admit")
		}
	})

	t.Run("BlockWithDeadlineExpires", func(t *testing.T) {
		// An idle shard (no consumer) keeps the queue full forever, so
		// the wait must expire — deterministically, unlike racing a real
		// worker.
		const deadline = 60 * time.Millisecond
		h := mk(t, 1)
		p := serve.BlockWithDeadline(deadline)
		if err := h.Shard.Enqueue(p, batch("p", nil)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err := h.Shard.Enqueue(p, batch("p", nil))
		elapsed := time.Since(start)
		if err != serve.ErrBackpressure {
			t.Fatalf("enqueue on a stuck full queue = %v, want ErrBackpressure", err)
		}
		if elapsed < deadline {
			t.Fatalf("gave up after %v, before the %v deadline", elapsed, deadline)
		}
	})

	t.Run("BlockAdmitsWhenSpaceFrees", func(t *testing.T) {
		h := mk(t, 1)
		p := serve.BlockWithDeadline(30 * time.Second)
		if err := h.Shard.Enqueue(p, batch("p", nil)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- h.Shard.Enqueue(p, batch("p", nil)) }()
		time.Sleep(10 * time.Millisecond)
		if _, ok := h.Drain(); !ok {
			t.Fatal("drain returned nothing")
		}
		if err := <-done; err != nil {
			t.Fatalf("enqueue after space freed = %v, want nil", err)
		}
	})

	t.Run("ShedOldestDiscardsOldest", func(t *testing.T) {
		h := mk(t, 2)
		p := serve.ShedOldest()
		victim, survivor := open(t, h, "old-0"), open(t, h, "old-1")
		if err := h.Shard.Enqueue(p, batch("old-0", victim)); err != nil {
			t.Fatal(err)
		}
		if err := h.Shard.Enqueue(p, batch("old-1", survivor)); err != nil {
			t.Fatal(err)
		}
		// Full queue: the fresh batch must displace the oldest one.
		if err := h.Shard.Enqueue(p, batch("fresh", nil)); err != nil {
			t.Fatalf("enqueue on full queue = %v, want nil", err)
		}
		if got := victim.Stats().BatchesShed; got != 1 {
			t.Fatalf("oldest stream sheds = %d, want 1", got)
		}
		if got := survivor.Stats().BatchesShed; got != 0 {
			t.Fatalf("surviving stream sheds = %d, want 0", got)
		}
		var order []string
		for {
			j, ok := h.Drain()
			if !ok {
				break
			}
			order = append(order, j.Patient)
		}
		if len(order) != 2 || order[0] != "old-1" || order[1] != "fresh" {
			t.Fatalf("queue order = %v, want [old-1 fresh]", order)
		}
	})

	t.Run("ShedOldestPreservesConfirms", func(t *testing.T) {
		h := mk(t, 3)
		p := serve.ShedOldest()
		obs := open(t, h, "p")
		if err := h.Shard.Enqueue(p, confirm("p")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := h.Shard.Enqueue(p, batch("p", obs)); err != nil {
				t.Fatal(err)
			}
		}
		// Queue is [confirm batch batch]. Shedding for a new batch must
		// pop the confirmation, re-enqueue it, and discard a batch
		// instead.
		if err := h.Shard.Enqueue(p, batch("p", obs)); err != nil {
			t.Fatalf("enqueue = %v, want nil", err)
		}
		if got := obs.Stats().BatchesShed; got != 1 {
			t.Fatalf("sheds = %d, want 1", got)
		}
		confirms, batches := 0, 0
		for {
			j, ok := h.Drain()
			if !ok {
				break
			}
			if j.Confirm {
				confirms++
			} else {
				batches++
			}
		}
		if confirms != 1 || batches != 2 {
			t.Fatalf("queue drained to %d confirms / %d batches, want 1/2", confirms, batches)
		}
	})

	t.Run("ShedOldestRefusesRatherThanShedLoneConfirm", func(t *testing.T) {
		h := mk(t, 1)
		p := serve.ShedOldest()
		if err := h.Shard.Enqueue(p, confirm("p")); err != nil {
			t.Fatal(err)
		}
		// The only slot holds a confirmation; a batch cannot displace it.
		if err := h.Shard.Enqueue(p, batch("p", nil)); err != serve.ErrBackpressure {
			t.Fatalf("enqueue over a lone confirm = %v, want ErrBackpressure", err)
		}
		j, ok := h.Drain()
		if !ok || !j.Confirm {
			t.Fatal("confirmation no longer in the queue")
		}
	})
}
