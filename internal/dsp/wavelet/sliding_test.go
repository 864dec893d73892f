package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// slideShapes are the decompositions FuzzSlideMatchesDecompose slides:
// the feature extractor's at 256 Hz and 128 Hz (4 s windows, db4 to
// level 7, details 3, 6 and 7), then shapes whose deep levels are
// shorter than the filter, and the two-tap and six-tap filters.
var slideShapes = []struct {
	w      Wavelet
	n      int
	level  int
	demand []int
}{
	{DB4, 1024, 7, []int{3, 6, 7}},
	{DB4, 512, 7, []int{3, 6, 7}},
	{DB4, 64, 4, []int{1, 4}},
	{DB4, 32, 5, []int{2, 5, 9}},
	{Haar, 64, 6, []int{1, 2, 3, 4, 5, 6}},
	{DB3, 128, 3, []int{2}},
	{Sym4, 256, 2, nil},
}

// FuzzSlideMatchesDecompose slides random signals — with runs of
// repeats, signed zeros and infinities — through chains of hops, and
// compares every coefficient the sliding decomposition keeps, bit for
// bit, with a DecomposeInto of the same window. Each step's byte picks
// a hop that divides down every level (the carried path), any other
// hop (the fallback), or an unrelated window passed as hop 0.
func FuzzSlideMatchesDecompose(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{4, 4, 4, 4, 4, 4})         // 256 Hz, 1 s hops
	f.Add(int64(2), uint8(1), []byte{0, 0, 0, 0, 0, 0})         // 128 Hz, 1 s hops
	f.Add(int64(3), uint8(0), []byte{4, 1, 0, 2, 8, 0, 5, 0})   // mixed hops
	f.Add(int64(4), uint8(2), []byte{0, 4, 8, 12, 16, 1, 2, 0}) // shallow shape
	f.Add(int64(5), uint8(3), []byte{0, 0, 1, 0, 2, 0})
	f.Add(int64(6), uint8(4), []byte{0, 4, 0, 4, 3, 0})
	f.Add(int64(7), uint8(5), []byte{0, 0, 0, 1, 0, 0})
	f.Add(int64(8), uint8(6), []byte{0, 4, 0, 2, 0})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, steps []byte) {
		sh := slideShapes[int(shape)%len(slideShapes)]
		if len(steps) > 24 {
			steps = steps[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		unit := 1 << sh.level
		sig := make([]float64, 0, sh.n)
		extend := func(to int) {
			for len(sig) < to {
				var v float64
				switch k := rng.Intn(16); {
				case k == 0:
					v = math.Copysign(0, rng.NormFloat64())
				case k == 1 && len(sig) > 0:
					v = sig[len(sig)-1]
				case k == 2:
					v = math.Inf(1 - 2*rng.Intn(2))
				case k < 6:
					v = float64(rng.Intn(3) - 1) // ties and exact zeros
				default:
					v = rng.NormFloat64()
				}
				sig = append(sig, v)
			}
		}
		ws := sh.w.NewWorkspace()
		s, err := NewSliding(sh.n, sh.level, sh.demand...)
		if err != nil {
			t.Fatal(err)
		}
		var ref Decomposition
		pos, hop := 0, 0
		for step := 0; step <= len(steps); step++ {
			extend(pos + sh.n)
			x := sig[pos : pos+sh.n]
			if err := ws.Slide(s, x, hop); err != nil {
				t.Fatal(err)
			}
			for l := 1; l <= sh.level; l++ {
				var err error
				if l == 1 {
					err = ws.DecomposeInto(&ref, x, 1)
				} else {
					err = ws.ExtendInto(&ref, l)
				}
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("step %d (hop %d) L%d", step, hop, l)
				sameBits(t, what+" approx", s.approx[l-1], ref.Approx)
				if d := s.Detail(l); d != nil {
					sameBits(t, what+" detail", d, ref.Detail(l))
				}
			}
			if step == len(steps) {
				break
			}
			b := int(steps[step])
			switch b % 4 {
			case 0, 3: // carried: a multiple of 2^level, possibly past the window
				hop = unit * (1 + (b/4)%(sh.n/unit+1))
				pos += hop
			case 1: // any hop: falls back when it does not divide down
				hop = 1 + (b/4)%sh.n
				pos += hop
			case 2: // an unrelated window
				pos += 1 + b
				hop = 0
			}
		}
		for _, l := range sh.demand {
			if l > sh.level && s.Detail(l) != nil {
				t.Fatalf("level %d beyond the decomposition has details", l)
			}
		}
	})
}

func TestNewSlidingErrors(t *testing.T) {
	if _, err := NewSliding(1024, 0); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := NewSliding(800, 7); err == nil {
		t.Error("800 samples accepted for 7 levels")
	}
	s, err := NewSliding(1024, 7, 3, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := DB4.NewWorkspace().Slide(s, make([]float64, 512), 0); err == nil {
		t.Error("Slide accepted a window of the wrong length")
	}
}

// TestSlidingSize pins the carried size at the feature extractor's
// 256 Hz shape: every approximation (1,016 coefficients) plus details
// 3, 6 and 7 (152); a level demanded twice is kept once.
func TestSlidingSize(t *testing.T) {
	s, err := NewSliding(1024, 7, 3, 6, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for l := range s.approx {
		total += len(s.approx[l]) + len(s.detail[l])
	}
	if total != 1168 {
		t.Errorf("carries %d coefficients, want 1168", total)
	}
}

func BenchmarkSlide(b *testing.B) {
	const n = 1024
	sig := randomSignal(5, n+256*64)
	for _, bc := range []struct {
		name string
		hop  int
	}{{"masked", 0}, {"carried", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := DB4.NewWorkspace()
			s, err := NewSliding(n, 7, 3, 6, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			pos := 0
			for i := 0; i < b.N; i++ {
				hop := bc.hop
				if pos += hop; hop == 0 || pos+n > len(sig) {
					pos, hop = 0, 0
				}
				if err := ws.Slide(s, sig[pos:pos+n], hop); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
