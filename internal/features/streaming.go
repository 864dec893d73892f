package features

import (
	"fmt"

	"selflearn/internal/dsp/wavelet"
)

// Streamer computes the paper's 10-feature rows sample by sample, the
// way the wearable's firmware does: two synchronized channel streams
// feed ring buffers of one analysis window (4 s); every hop (1 s) a
// feature row is emitted. Feeding an entire recording through a Streamer
// yields exactly the matrix Extract10 computes in batch.
//
// A Streamer owns only its per-stream state: the two sample rings,
// their counters, and channel 2's DWT carried from one window to the
// next. Window linearization, the rest of feature extraction and the
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

	// dwt is the last window's decomposition of channel 2, which the
	// next window, hopSamples later, slides forward (wavelet.Slide
	// decides which coefficients carry over). It is nil for a window
	// padded to a power of two, whose padding does not shift with the
	// samples, and for one too short for the level; the workspace then
	// decomposes each window in full.
	dwt *wavelet.Sliding
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
	s := &Streamer{
		ws:         ws,
		winSamples: ws.win,
		hopSamples: ws.cfg.Window.HopSamples(ws.fs),
		buf0:       make([]float64, ws.win),
		buf1:       make([]float64, ws.win),
	}
	if ws.win&(ws.win-1) == 0 {
		// An error leaves dwt nil: the first emit reports the
		// unreachable level.
		s.dwt, _ = ws.newSliding(ws.win)
	}
	return s
}

// NumFeatures returns the width of every emitted feature row, so
// consumers sizing storage for rows derive it rather than assume it.
func (s *Streamer) NumFeatures() int { return len(PaperFeatureNames()) }

// Push feeds one synchronized sample pair (F7T3, F8T4): a one-sample
// PushBlock. When it completes a window it returns the freshly computed
// feature row and ready = true; otherwise row is nil.
//
// The returned row is the Workspace's reusable emission buffer: it is
// valid until the next row emitted by any Streamer sharing that
// workspace, and callers that retain rows must copy them. This keeps
// the steady-state push path completely allocation-free.
//
//selflearn:hotpath
func (s *Streamer) Push(v0, v1 float64) (row []float64, ready bool, err error) {
	c0, c1 := [1]float64{v0}, [1]float64{v1}
	_, row, err = s.PushBlock(c0[:], c1[:])
	return row, row != nil, err
}

// PushBlock feeds the synchronized sample pairs (c0[i], c1[i]) in
// order, stopping after the pair that completes a window. It returns
// how many pairs it consumed and, when the last of them completed a
// window, that window's row, valid as long as Push's; row is nil when
// it consumed every pair without completing a window. Callers loop
// until the block is consumed. Channels of different lengths are an
// error.
//
//selflearn:hotpath
func (s *Streamer) PushBlock(c0, c1 []float64) (n int, row []float64, err error) {
	if len(c0) != len(c1) {
		return 0, nil, fmt.Errorf("features: channel blocks of %d and %d samples", len(c0), len(c1))
	}
	// Pairs until the next window completes: the first window, then one
	// every hop.
	need := s.hopSamples - s.sinceEmit
	if s.filled < s.winSamples {
		need = s.winSamples - s.filled
	}
	n = min(len(c0), need)
	for done := 0; done < n; {
		k := copy(s.buf0[s.pos:], c0[done:n])
		copy(s.buf1[s.pos:], c1[done:done+k])
		done += k
		if s.pos += k; s.pos == s.winSamples {
			s.pos = 0
		}
	}
	if s.filled < s.winSamples {
		s.filled += n
	} else {
		s.sinceEmit += n
	}
	if n < need {
		return n, nil, nil
	}
	row, err = s.emit()
	return n, row, err
}

// emit linearizes the rings into the workspace's window buffers and
// computes the row into its reusable emission buffer. The window counts
// as emitted even when its row fails, so the next one is a hop later.
func (s *Streamer) emit() ([]float64, error) {
	ws := s.ws
	s.sinceEmit = 0
	// Oldest sample sits at s.pos.
	n := copy(ws.lin0, s.buf0[s.pos:])
	copy(ws.lin0[n:], s.buf0[:s.pos])
	n = copy(ws.lin1, s.buf1[s.pos:])
	copy(ws.lin1[n:], s.buf1[:s.pos])
	hop := 0 // a streamer that carries no DWT decomposes every window in full
	if s.dwt != nil {
		hop = s.hopSamples
	}
	row, err := ws.features10(ws.row[:0], ws.lin0, ws.lin1, s.dwt, hop)
	if err != nil {
		return nil, err
	}
	ws.row = row
	return row, nil
}
