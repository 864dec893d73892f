package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"selflearn/internal/ml/forest"
)

// BenchmarkServe measures steady-state classification throughput as the
// worker count grows. Four producer goroutines each own a disjoint
// subset of 32 patients' streams and push one-second batches round-robin,
// sleeping briefly on backpressure — so the shard queues stay saturated,
// the workers' coalescing drains engage, and the measured rate is the
// server's processing capacity rather than the wakeup latency of a
// single producer (which a lone pushing goroutine ends up measuring:
// one park/unpark handshake per window). ns/op is the wall time per
// streamed patient-second, the final drain included, and should fall as
// workers are added until the core count is exhausted; windows/s is the
// windows classified after priming over that same timed span. Shards
// are resolved once at Open, so the loop body is hash-free — the
// remaining per-push hash cost is isolated in BenchmarkShard.
func BenchmarkServe(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchServe(b, workers, 32)
		})
	}
}

func benchServe(b *testing.B, workers, patients int) {
	srv, err := New(Config{
		Workers:    workers,
		QueueDepth: 64,
		SampleRate: testRate,
		History:    time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := testRecording(b, 42, 2, -1, 0)
	// One shared one-second batch: workers only read sample slices, and
	// per-session ring buffers make the content reuse harmless.
	c0, c1 := rec.Data[0][:testRate], rec.Data[1][:testRate]
	streams := make([]*Stream, patients)
	for p := range streams {
		h, err := srv.Open(fmt.Sprintf("bench-%03d", p))
		if err != nil {
			b.Fatal(err)
		}
		streams[p] = h
	}
	// Prime every session (first window costs 4 s of fill). Retries
	// yield: a busy spin would steal the very CPU time the workers need
	// to drain the queue and the benchmark would measure its own
	// spinning instead of the processing rate.
	for _, h := range streams {
		for i := 0; i < 4; i++ {
			for h.Push(c0, c1) == ErrBackpressure {
				runtime.Gosched()
			}
		}
	}
	const producers = 4
	base := srv.Snapshot()
	b.ResetTimer()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		n := b.N / producers
		if pr < b.N%producers {
			n++
		}
		wg.Add(1)
		go func(pr, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Producer pr owns patients ≡ pr (mod producers): streams
				// stay single-pusher and the load is round-robin overall.
				h := streams[(pr+producers*i)%patients]
				for h.Push(c0, c1) == ErrBackpressure {
					// Sleep, don't spin: a busy retry would steal the very
					// CPU the workers need to drain the queue.
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(pr, n)
	}
	wg.Wait()
	srv.Close() // drain: every pushed second is classified inside the timer
	b.StopTimer()
	windows := srv.Snapshot().Since(base).Windows
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
}

// BenchmarkPipeline measures the full samples-in → alarm-out window
// pipeline on one session with no queue hops, as one-job worker drains:
// Streamer.Push through the feature workspace, history ring copy,
// FlatForest classification, and alarm smoothing. One iteration is one
// one-second batch, i.e. one classified window in steady state, so
// windows/s here is the single-core ceiling the sharded server fans
// out. allocs/op is the pipeline's allocation budget and must stay 0
// (enforced by TestSessionBatchPathZeroAlloc).
func BenchmarkPipeline(b *testing.B) {
	model := trainOnRecording(b)
	// The float ablation trains an identical forest (same seeds) and
	// drops its int16 companion, so trained vs trained-float isolates
	// exactly the quantized-descent win inside the full pipeline.
	floatModel := trainOnRecording(b)
	floatModel.DropQuant()
	for _, tc := range []struct {
		name  string
		model *forest.FlatForest
	}{{"untrained", nil}, {"trained", model}, {"trained-float", floatModel}} {
		b.Run(tc.name, func(b *testing.B) {
			w, _ := drainWorker(b)
			const historyRows = 3600
			sess, err := w.session(tc.name, historyRows)
			if err != nil {
				b.Fatal(err)
			}
			if tc.model != nil {
				sess.model.Store(tc.model)
			}
			rec := testRecording(b, 21, 60, -1, 0)
			c0, c1 := rec.Data[0], rec.Data[1]
			batch := int(testRate)
			d := &drain{}
			pos := 0
			push := func() {
				drainOne(w, d, Job{Patient: tc.name, C0: c0[pos : pos+batch], C1: c1[pos : pos+batch]}, historyRows)
				pos += batch
				if pos+batch > len(c0) {
					pos = 8 * batch
				}
			}
			for i := 0; i < 8; i++ {
				push() // fill the first window and size all buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// BenchmarkShard isolates the shard-hash fix: the stdlib path pays the
// hasher construction, []byte conversion and hash.Hash32 interface
// dispatch on every call (~4× the inline FNV-1a loop here — and a heap
// allocation wherever the hasher escapes, as it did in the old
// per-Submit shard()).
func BenchmarkShard(b *testing.B) {
	const id = "patient-0042"
	b.Run("fnv-stdlib", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint32
		for i := 0; i < b.N; i++ {
			h := fnv.New32a()
			h.Write([]byte(id))
			sink += h.Sum32()
		}
		_ = sink
	})
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink += shardHash(id)
		}
		_ = sink
	})
}
