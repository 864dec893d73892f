package features

import (
	"errors"
	"testing"

	"selflearn/internal/signal"
	"selflearn/internal/synth"
)

// benchRecording synthesizes one minute of two-channel EEG with a
// seizure, the workload every per-window benchmark below extracts from.
func benchRecording(tb testing.TB) *signal.Recording {
	tb.Helper()
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID:  "chb01",
		RecordID:   "bench",
		Seed:       7,
		Duration:   60,
		Background: synth.DefaultBackground(),
		Seizures: []synth.SeizureEvent{
			{Start: 20, Duration: 15, Config: synth.DefaultSeizure()},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestStreamerPushZeroAlloc is the allocation-budget guard for the
// serving hot path's front half: once the first window has sized every
// workspace buffer, pushing samples — including the pushes that emit a
// feature row — must not allocate at all.
func TestStreamerPushZeroAlloc(t *testing.T) {
	rec := benchRecording(t)
	c0 := rec.Channel(signal.ChannelF7T3)
	c1 := rec.Channel(signal.ChannelF8T4)
	st, err := NewStreamer(rec.SampleRate, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: several windows size and stabilize all scratch buffers.
	pos := 0
	for emitted := 0; emitted < 8; {
		if _, ready, err := st.Push(c0[pos], c1[pos]); err != nil {
			t.Fatal(err)
		} else if ready {
			emitted++
		}
		pos++
	}
	hop := DefaultConfig().Window.HopSamples(rec.SampleRate)
	allocs := testing.AllocsPerRun(20, func() {
		// One full hop: exactly one emitted row per run.
		for i := 0; i < hop; i++ {
			if _, _, err := st.Push(c0[pos], c1[pos]); err != nil {
				t.Fatal(err)
			}
			pos++
			if pos == len(c0) {
				pos = len(c0) / 2 // stay inside the recording
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Streamer.Push steady state allocates %.1f objects per window, want 0", allocs)
	}
}

// TestExtract10AllocBudget pins the batch extractor's per-window cost
// to its unavoidable output: the returned feature row. Everything else
// runs out of the workspace.
func TestExtract10AllocBudget(t *testing.T) {
	rec := benchRecording(t)
	cfg := DefaultConfig()
	nWin := cfg.Window.NumWindows(rec.Samples(), rec.SampleRate)
	// One matrix + workspace warm-up run, then measure.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Extract10(rec, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: one allocation per emitted row, plus a fixed workspace +
	// matrix overhead independent of the window count.
	budget := float64(nWin) + 64
	if allocs > budget {
		t.Fatalf("Extract10 allocates %.0f objects for %d windows (budget %.0f): the per-window path is allocating", allocs, nWin, budget)
	}
}

func BenchmarkStreamerPush(b *testing.B) {
	rec := benchRecording(b)
	c0 := rec.Channel(signal.ChannelF7T3)
	c1 := rec.Channel(signal.ChannelF8T4)
	st, err := NewStreamer(rec.SampleRate, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2048; i++ { // prime past the first window
		if _, _, err := st.Push(c0[i], c1[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	pos := 2048
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Push(c0[pos], c1[pos]); err != nil {
			b.Fatal(err)
		}
		pos++
		if pos == len(c0) {
			pos = len(c0) / 2
		}
	}
}

// BenchmarkEntropies times the row's entropy estimators on the serving
// subbands of one 256 Hz window: permutation entropy of orders 5 and 7
// on D7 and 7 on D6, Rényi on D3, and both sample entropies on D6.
func BenchmarkEntropies(b *testing.B) {
	rec := benchRecording(b)
	cfg := DefaultConfig()
	ws, err := NewWorkspace(rec.SampleRate, cfg)
	if err != nil {
		b.Fatal(err)
	}
	w1, err := cfg.Window.Window(rec.Channel(signal.ChannelF8T4), 20, rec.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	dwt, err := ws.newSliding(len(w1))
	if err != nil {
		b.Fatal(err)
	}
	if err := ws.wl.Slide(dwt, w1, 0); err != nil {
		b.Fatal(err)
	}
	bd := ws.bands
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err1 := ws.ent.Permutation(dwt.Detail(bd.deepest), 5)
		_, err2 := ws.ent.Permutation(dwt.Detail(bd.deepest), 7)
		_, err3 := ws.ent.Permutation(dwt.Detail(bd.next), 7)
		_, err4 := ws.ent.RenyiSignal(dwt.Detail(bd.renyi), cfg.RenyiAlpha, cfg.RenyiBins)
		_, _, err5 := ws.ent.SampleKPair(dwt.Detail(bd.next), cfg.SampleM, 0.2, 0.35)
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract10(b *testing.B) {
	rec := benchRecording(b)
	cfg := DefaultConfig()
	nWin := cfg.Window.NumWindows(rec.Samples(), rec.SampleRate)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract10(rec, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nWin), "windows/op")
}

func BenchmarkExtract54(b *testing.B) {
	rec := benchRecording(b)
	cfg := DefaultConfig()
	nWin := cfg.Window.NumWindows(rec.Samples(), rec.SampleRate)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract54(rec, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nWin), "windows/op")
}
