package features

import (
	"fmt"
	"math"
	"testing"

	"selflearn/internal/synth"
)

// TestStreamerMatchesBatchExactly streams a recording sample by sample
// and compares every row, bit for bit, with Extract10's. At 256 Hz and
// 128 Hz the streamer carries channel 2's DWT across hops. At 200 Hz
// the 800-sample window is padded to 1,024, so it must fall back to a
// full decomposition per window; so must 384 Hz, whose 384-sample hop
// would divide down every level but whose 1,536-sample window is
// padded to 2,048.
func TestStreamerMatchesBatchExactly(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		carry bool
	}{{256, true}, {128, true}, {200, false}, {384, false}} {
		t.Run(fmt.Sprint(tc.rate), func(t *testing.T) {
			rec, err := synth.Generate(synth.RecordConfig{
				PatientID:  "chb01",
				RecordID:   "stream",
				Seed:       77,
				Duration:   60,
				SampleRate: tc.rate,
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
			st, err := NewStreamer(rec.SampleRate, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := st.dwt != nil; got != tc.carry {
				t.Fatalf("streamer carries its DWT: %v, want %v", got, tc.carry)
			}
			var streamed [][]float64
			for i := range rec.Data[0] {
				row, ready, err := st.Push(rec.Data[0][i], rec.Data[1][i])
				if err != nil {
					t.Fatal(err)
				}
				if ready {
					streamed = append(streamed, append([]float64(nil), row...))
				}
			}
			if len(streamed) != batch.NumRows() {
				t.Fatalf("streamed %d rows vs batch %d", len(streamed), batch.NumRows())
			}
			for i := range batch.Rows {
				for f := range batch.Rows[i] {
					if math.Float64bits(batch.Rows[i][f]) != math.Float64bits(streamed[i][f]) {
						t.Fatalf("row %d feature %d: stream %v vs batch %v",
							i, f, streamed[i][f], batch.Rows[i][f])
					}
				}
			}
		})
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

// streamedRow is one emitted feature row, copied on emission, with the
// number of samples its streamer had consumed when it emitted.
type streamedRow struct {
	at  int
	row []float64
}

// TestSharedWorkspaceMatchesPrivateStreamers drives nine streamers on
// one Workspace — distinct recordings, pushed in chunks of varying
// length, interleaved round-robin — and checks every row bit for bit,
// at the same sample index, against a streamer with a workspace of its
// own fed the same samples, at 256 Hz and at 128 Hz.
func TestSharedWorkspaceMatchesPrivateStreamers(t *testing.T) {
	for _, rate := range []float64{256, 128} {
		t.Run(fmt.Sprint(rate), func(t *testing.T) { sharedMatchesPrivate(t, rate) })
	}
}

func sharedMatchesPrivate(t *testing.T, rate float64) {
	const streams = 9
	cfg := DefaultConfig()
	recs := make([][2][]float64, streams)
	var fs float64
	for i := range recs {
		rc := synth.RecordConfig{
			PatientID:  "shared",
			RecordID:   "ws",
			Seed:       int64(100 + i),
			Duration:   float64(16 + 2*i),
			SampleRate: rate,
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
	// workspace.
	want := make([][]streamedRow, streams)
	for i, rec := range recs {
		st, err := NewStreamer(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rec[0] {
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
