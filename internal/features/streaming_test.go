package features

import (
	"math"
	"testing"

	"selflearn/internal/synth"
)

func TestStreamerMatchesBatchExactly(t *testing.T) {
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID:  "chb01",
		RecordID:   "stream",
		Seed:       77,
		Duration:   60,
		Background: synth.DefaultBackground(),
		Seizures: []synth.SeizureEvent{
			{Start: 20, Duration: 15, Config: synth.DefaultSeizure()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Extract10(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := StreamRecording(rec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if streamed.NumRows() != batch.NumRows() {
		t.Fatalf("streamed %d rows vs batch %d", streamed.NumRows(), batch.NumRows())
	}
	for i := range batch.Rows {
		for f := range batch.Rows[i] {
			if batch.Rows[i][f] != streamed.Rows[i][f] {
				t.Fatalf("row %d feature %d: stream %g vs batch %g",
					i, f, streamed.Rows[i][f], batch.Rows[i][f])
			}
		}
	}
}

func TestStreamerEmissionTiming(t *testing.T) {
	st, err := NewStreamer(256, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 10*256; i++ {
		_, ready, err := st.Push(math.Sin(float64(i)/5), math.Cos(float64(i)/5))
		if err != nil {
			t.Fatal(err)
		}
		if ready {
			emitted++
			// First emission after exactly one full window (1024
			// samples), then every 256 samples.
			wantAt := 1024 + (emitted-1)*256
			if i+1 != wantAt {
				t.Fatalf("emission %d at sample %d, want %d", emitted, i+1, wantAt)
			}
		}
	}
	if emitted != 7 { // (2560-1024)/256+1
		t.Errorf("emitted %d rows in 10 s, want 7", emitted)
	}
	if st.RowsEmitted() != emitted {
		t.Error("RowsEmitted out of sync")
	}
}

func TestStreamerReset(t *testing.T) {
	st, err := NewStreamer(256, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, _, err := st.Push(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	st.Reset()
	if st.RowsEmitted() != 0 {
		t.Error("reset should clear the row count")
	}
	// After reset, needs a full window again before emitting.
	count := 0
	for i := 0; i < 1023; i++ {
		_, ready, err := st.Push(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ready {
			count++
		}
	}
	if count != 0 {
		t.Error("no row should emit before a full window after reset")
	}
}

func TestNewStreamerErrors(t *testing.T) {
	if _, err := NewStreamer(0, DefaultConfig()); err == nil {
		t.Error("fs=0 should fail")
	}
	bad := DefaultConfig()
	bad.Level = 0
	if _, err := NewStreamer(256, bad); err == nil {
		t.Error("bad config should fail")
	}
}

func TestStreamRecordingErrors(t *testing.T) {
	rec, err := synth.Generate(synth.RecordConfig{
		PatientID: "p", RecordID: "r", Seed: 1, Duration: 2,
		Background: synth.DefaultBackground(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StreamRecording(rec, DefaultConfig()); err == nil {
		t.Error("2 s recording (shorter than a window) should fail")
	}
}

// streamedRow is one emitted feature row, copied on emission, with the
// number of samples its streamer had consumed when it emitted.
type streamedRow struct {
	at  int
	row []float64
}

// TestSharedWorkspaceMatchesPrivateStreamers drives nine streamers on
// one Workspace — distinct recordings, pushed in chunks of varying
// length, interleaved round-robin, one of them Reset mid-stream — and
// checks every row bit for bit, at the same sample index, against a
// streamer with a workspace of its own fed the same samples.
func TestSharedWorkspaceMatchesPrivateStreamers(t *testing.T) {
	const (
		streams = 9
		reset   = 4    // the streamer Reset mid-stream
		resetAt = 5000 // samples it has consumed when Reset
	)
	cfg := DefaultConfig()
	recs := make([][2][]float64, streams)
	var fs float64
	for i := range recs {
		rc := synth.RecordConfig{
			PatientID:  "shared",
			RecordID:   "ws",
			Seed:       int64(100 + i),
			Duration:   float64(16 + 2*i),
			Background: synth.DefaultBackground(),
		}
		if i%3 == 0 {
			rc.Seizures = []synth.SeizureEvent{{Start: 5, Duration: 8, Config: synth.DefaultSeizure()}}
		}
		rec, err := synth.Generate(rc)
		if err != nil {
			t.Fatal(err)
		}
		fs = rec.SampleRate
		recs[i] = [2][]float64{rec.Data[0], rec.Data[1]}
	}

	// Reference: each recording alone, sample by sample, on a private
	// workspace, Reset at the same sample index.
	want := make([][]streamedRow, streams)
	for i, rec := range recs {
		st, err := NewStreamer(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rec[0] {
			if i == reset && k == resetAt {
				st.Reset()
			}
			row, ready, err := st.Push(rec[0][k], rec[1][k])
			if err != nil {
				t.Fatal(err)
			}
			if ready {
				want[i] = append(want[i], streamedRow{k + 1, append([]float64(nil), row...)})
			}
		}
	}

	ws, err := NewWorkspace(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]*Streamer, streams)
	for i := range shared {
		shared[i] = ws.NewStreamer()
	}
	chunks := []int{1, 255, 256, 257, 1000, 3, 700, 2048, 64}
	got := make([][]streamedRow, streams)
	pos := make([]int, streams)
	for round, active := 0, streams; active > 0; round++ {
		active = 0
		for i, st := range shared {
			rec := recs[i]
			end := min(pos[i]+chunks[(round+i)%len(chunks)], len(rec[0]))
			if i == reset && pos[i] < resetAt && end > resetAt {
				end = resetAt
			}
			for k := pos[i]; k < end; k++ {
				row, ready, err := st.Push(rec[0][k], rec[1][k])
				if err != nil {
					t.Fatal(err)
				}
				if ready {
					got[i] = append(got[i], streamedRow{k + 1, append([]float64(nil), row...)})
				}
			}
			pos[i] = end
			if i == reset && end == resetAt {
				st.Reset()
			}
			if end < len(rec[0]) {
				active++
			}
		}
	}

	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("stream %d: shared workspace emitted %d rows, private %d", i, len(got[i]), len(want[i]))
		}
		for r, w := range want[i] {
			g := got[i][r]
			if g.at != w.at {
				t.Fatalf("stream %d row %d: emitted at sample %d, private at %d", i, r, g.at, w.at)
			}
			for f := range w.row {
				if math.Float64bits(g.row[f]) != math.Float64bits(w.row[f]) {
					t.Fatalf("stream %d row %d feature %d: shared %v vs private %v", i, r, f, g.row[f], w.row[f])
				}
			}
		}
	}
}
