package wavelet

import "fmt"

// Sliding is a multilevel decomposition carried from one window of a
// signal to the next: every level's approximation, and the details of
// the levels its owner reads. A window that starts hop samples after
// the previous one shares all but hop of its samples with it, so when
// hop is a multiple of 2^level every level's coefficients that touch
// neither the new samples nor the periodic wrap are the previous
// window's, shifted by hop/2^l — the same arithmetic on the same
// operands. Workspace.Slide keeps those and computes only each level's
// tail.
type Sliding struct {
	approx [][]float64 // approx[l]: level l+1 approximation, n/2^(l+1) long
	detail [][]float64 // detail[l]: level l+1 detail when demanded, else nil
	warm   bool        // holds the decomposition of the last window slid
}

// NewSliding allocates, in one block, the coefficients of n-sample
// windows decomposed to level, keeping the details of the demanded
// levels; demanded levels outside 1..level are ignored, and Detail
// returns nil for them. n must be divisible by 2^level.
func NewSliding(n, level int, demand ...int) (*Sliding, error) {
	if level < 1 {
		return nil, fmt.Errorf("wavelet: invalid level %d", level)
	}
	if MaxLevel(n) < level {
		return nil, fmt.Errorf("wavelet: signal length %d does not support %d levels (max %d)",
			n, level, MaxLevel(n))
	}
	var kept uint64      // bit l-1: level l's details are kept (level < 64: n is an int)
	size := n - n>>level // every approximation
	for _, l := range demand {
		if l >= 1 && l <= level && kept&(1<<(l-1)) == 0 {
			kept |= 1 << (l - 1)
			size += n >> l
		}
	}
	block := make([]float64, size)
	s := &Sliding{approx: make([][]float64, level), detail: make([][]float64, level)}
	for l := range s.approx {
		k := n >> (l + 1)
		s.approx[l], block = block[:k:k], block[k:]
		if kept&(1<<l) != 0 {
			s.detail[l], block = block[:k:k], block[k:]
		}
	}
	return s, nil
}

// Detail returns the detail coefficients of a demanded level (1-based),
// or nil for a level that is not demanded or out of range.
//
//selflearn:hotpath
func (s *Sliding) Detail(level int) []float64 {
	if level < 1 || level > len(s.detail) {
		return nil
	}
	return s.detail[level-1]
}

// Slide decomposes x into s, bit-identically to DecomposeInto for
// every coefficient s keeps. When hop > 0 says that x starts hop
// samples after the window s holds, and hop is a multiple of 2^level,
// each level keeps the prefix whose filter taps all fall in the
// previous window's shifted coefficients and computes only the rest.
// Otherwise — the first window, hop ≤ 0 for a window unrelated to the
// last, or a hop that does not divide down every level — it computes
// every kept coefficient. len(x) must be the n s was built for. Slide
// runs forwardInto, the one analysis loop DecomposeInto runs.
//
//selflearn:hotpath
func (ws *Workspace) Slide(s *Sliding, x []float64, hop int) error {
	n := len(x)
	if n != 2*len(s.approx[0]) {
		return fmt.Errorf("wavelet: sliding decomposition sized for %d samples, got %d", 2*len(s.approx[0]), n)
	}
	m := len(ws.lo)
	warm := s.warm && hop > 0 && hop&(1<<len(s.approx)-1) == 0
	keep := 0 // the current level's input prefix that is the last window's, shifted
	if warm {
		keep = n - hop
	}
	cur := x
	for l := range s.approx {
		a, d := s.approx[l], s.detail[l]
		from := 0
		if keep >= m {
			from = (keep-m)/2 + 1 // outputs whose taps all lie below keep
			shift := hop >> (l + 1)
			copy(a, a[shift:shift+from])
			if d != nil {
				copy(d, d[shift:shift+from])
			}
		}
		ws.forwardInto(a, d, cur, from)
		keep, cur = from, a
	}
	s.warm = true
	return nil
}
