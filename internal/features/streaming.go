package features

import (
	"errors"

	"selflearn/internal/signal"
)

// Streamer computes the paper's 10-feature rows sample by sample, the
// way the wearable's firmware does: two synchronized channel streams
// feed ring buffers of one analysis window (4 s); every hop (1 s) a
// feature row is emitted. Feeding an entire recording through a Streamer
// yields exactly the matrix Extract10 computes in batch.
//
// A Streamer owns only its per-stream state: the two sample rings and
// their counters. Window linearization, feature extraction and the
// emitted row live in the Workspace it was built from, so many
// streamers (a serving worker's patients) can share one extractor's
// scratch.
type Streamer struct {
	ws         *Workspace
	winSamples int
	hopSamples int
	buf0, buf1 []float64 // ring buffers, winSamples long
	pos        int       // next write slot
	filled     int       // samples buffered so far (caps at winSamples)
	sinceEmit  int       // samples since the last emitted row
	rows       int       // rows emitted
}

// NewStreamer builds a streaming extractor for sampling rate fs on a
// workspace of its own.
func NewStreamer(fs float64, cfg Config) (*Streamer, error) {
	ws, err := NewWorkspace(fs, cfg)
	if err != nil {
		return nil, err
	}
	return ws.NewStreamer(), nil
}

// NewStreamer builds a streaming extractor that borrows ws for every
// window it emits. Streamers sharing a workspace must all run on one
// goroutine, and a row any of them returns stays valid only until any
// of them emits the next row.
func (ws *Workspace) NewStreamer() *Streamer {
	return &Streamer{
		ws:         ws,
		winSamples: ws.win,
		hopSamples: ws.cfg.Window.HopSamples(ws.fs),
		buf0:       make([]float64, ws.win),
		buf1:       make([]float64, ws.win),
	}
}

// RowsEmitted returns how many feature rows have been produced.
func (s *Streamer) RowsEmitted() int { return s.rows }

// NumFeatures returns the width of every emitted feature row, so
// consumers sizing storage for rows derive it rather than assume it.
func (s *Streamer) NumFeatures() int { return len(PaperFeatureNames()) }

// Push feeds one synchronized sample pair (F7T3, F8T4). When a full
// window boundary is reached it returns the freshly computed feature row
// and ready = true; otherwise row is nil.
//
// The returned row is the Workspace's reusable emission buffer: it is
// valid until the next row emitted by any Streamer sharing that
// workspace, and callers that retain rows must copy them. This keeps
// the steady-state push path completely allocation-free.
//
//selflearn:hotpath
func (s *Streamer) Push(v0, v1 float64) (row []float64, ready bool, err error) {
	s.buf0[s.pos] = v0
	s.buf1[s.pos] = v1
	if s.pos++; s.pos == s.winSamples {
		s.pos = 0
	}
	if s.filled < s.winSamples {
		s.filled++
		if s.filled == s.winSamples {
			// First complete window.
			return s.emit()
		}
		return nil, false, nil
	}
	s.sinceEmit++
	if s.sinceEmit == s.hopSamples {
		return s.emit()
	}
	return nil, false, nil
}

// emit linearizes the rings into the workspace's window buffers and
// computes the row into its reusable emission buffer.
func (s *Streamer) emit() ([]float64, bool, error) {
	ws := s.ws
	// Oldest sample sits at s.pos.
	n := copy(ws.lin0, s.buf0[s.pos:])
	copy(ws.lin0[n:], s.buf0[:s.pos])
	n = copy(ws.lin1, s.buf1[s.pos:])
	copy(ws.lin1[n:], s.buf1[:s.pos])
	row, err := ws.Features10Into(ws.row[:0], ws.lin0, ws.lin1)
	if err != nil {
		return nil, false, err
	}
	ws.row = row
	s.sinceEmit = 0
	s.rows++
	return row, true, nil
}

// Reset clears the stream state.
func (s *Streamer) Reset() {
	s.pos, s.filled, s.sinceEmit, s.rows = 0, 0, 0, 0
}

// StreamRecording pushes an entire recording through a fresh Streamer and
// collects the emitted rows into a Matrix; it is the streaming
// counterpart of Extract10 and produces an identical result.
func StreamRecording(rec *signal.Recording, cfg Config) (*Matrix, error) {
	c0, c1, err := requireTwoChannels(rec)
	if err != nil {
		return nil, err
	}
	st, err := NewStreamer(rec.SampleRate, cfg)
	if err != nil {
		return nil, err
	}
	if len(c0) < st.winSamples {
		return nil, errors.New("features: recording shorter than one window")
	}
	m := &Matrix{
		Names:      PaperFeatureNames(),
		Window:     cfg.Window,
		SampleRate: rec.SampleRate,
	}
	for i := range c0 {
		row, ready, err := st.Push(c0[i], c1[i])
		if err != nil {
			return nil, err
		}
		if ready {
			// Push reuses its emission buffer; retained rows are copied.
			m.Rows = append(m.Rows, append([]float64(nil), row...))
		}
	}
	return m, nil
}
