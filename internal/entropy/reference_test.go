package entropy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"selflearn/internal/stats"
)

// referencePermutation is the map-tallied permutation entropy the dense
// tally replaced, kept verbatim as the fuzz reference: a stable
// insertion sort of each window's indices, the sorted order coded in
// base n, counts in a map, summed in ascending order.
func referencePermutation(xs []float64, n int) float64 {
	if len(xs) < n {
		return 0
	}
	counts := make(map[uint64]int)
	var idx [12]int
	total := 0
	for start := 0; start+n <= len(xs); start++ {
		win := xs[start : start+n]
		for i := 0; i < n; i++ {
			idx[i] = i
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && win[idx[j]] < win[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		var code uint64
		for _, v := range idx[:n] {
			code = code*uint64(n) + uint64(v)
		}
		counts[code]++
		total++
	}
	var cs []int
	for _, c := range counts {
		cs = append(cs, c)
	}
	slices.Sort(cs)
	var h float64
	for _, c := range cs {
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	maxH := logFactorial(n)
	if maxH == 0 {
		return 0
	}
	return h / maxH
}

// fuzzPalette holds the values whose comparisons are easy to get wrong:
// signed zeros, infinities, NaN, subnormals and extremes.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 0.5, 3,
}

// fuzzSignal decodes one value per byte: bytes below 64 pick from
// fuzzPalette, so edge values and ties recur; the rest spread over 24
// steps of 1/8 around 0, which tie often too.
func fuzzSignal(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		if b < 64 {
			xs[i] = fuzzPalette[int(b)%len(fuzzPalette)]
		} else {
			xs[i] = float64(int(b)-160) / 8
		}
	}
	return xs
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzPermutationMatchesReference checks the inversion-table codes and
// the dense (orders 2–7) or sorted (8–12) tally against the map
// reference, bit for bit, on one workspace reused across orders.
func FuzzPermutationMatchesReference(f *testing.F) {
	// The seeds stay short: with a 1,024-sample seed the engine showed
	// no progress through a 20 s run, most likely minimizing the large
	// inputs that found new coverage.
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 256)
	for i := range noise {
		noise[i] = byte(64 + rng.Intn(192))
	}
	f.Add(noise, uint8(1))  // order 3, 256 samples
	f.Add(noise, uint8(3))  // order 5
	f.Add(noise, uint8(5))  // order 7
	f.Add(noise, uint8(10)) // order 12, cut short
	f.Add([]byte{160, 160, 161, 160, 159, 159, 160, 161, 161, 160}, uint8(0))
	f.Add([]byte{0, 1, 4, 5, 7, 8, 9, 2, 3, 10, 11, 0, 1, 4, 5}, uint8(2))
	f.Add([]byte{6, 200, 6, 100, 6, 6, 150, 200, 100, 6, 180}, uint8(4))
	f.Add([]byte{4, 5, 2, 3, 200, 4, 5, 180, 2, 3, 90, 91, 92, 4}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, order uint8) {
		xs := fuzzSignal(data)
		if len(xs) > 1024 {
			xs = xs[:1024]
		}
		n := 2 + int(order)%(maxOrder-1)
		var ws Workspace
		for _, k := range []int{n, 2 + (n+3)%(maxOrder-1), n} {
			sig := xs
			if k > 8 && len(sig) > 64 {
				sig = sig[:64] // short inputs keep orders above 8 cheap
			}
			got, err := ws.Permutation(sig, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := referencePermutation(sig, k); !sameBits(got, want) {
				t.Fatalf("order %d over %d samples %v: got %v, reference %v", k, len(sig), sig[:min(len(sig), 24)], got, want)
			}
		}
	})
}

// FuzzSampleKPairMatchesSampleK checks the paired sample entropies
// against two one-tolerance calls (values and errors) and against the
// brute pairwise reference, so the shared sort and the scan broken on
// the larger tolerance are both pinned.
func FuzzSampleKPairMatchesSampleK(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	noise := make([]byte, 200)
	for i := range noise {
		noise[i] = byte(64 + rng.Intn(192))
	}
	f.Add(noise[:16], uint8(2), 0.2, 0.35)
	f.Add(noise, uint8(2), 0.35, 0.2)
	f.Add(noise, uint8(1), 0.1, 1.5)
	f.Add(noise[:40], uint8(3), 0.0, 0.5)
	f.Add([]byte{4, 5, 2, 3, 200, 4, 5, 180, 2, 3, 90, 91, 92, 4, 0, 1}, uint8(2), 0.2, 0.35)
	f.Add([]byte{6, 160, 161, 160, 6, 162, 160, 161}, uint8(2), 0.2, 0.35)
	f.Add([]byte{160, 161}, uint8(0), -1.0, 0.2)
	f.Fuzz(func(t *testing.T, data []byte, mb uint8, k1, k2 float64) {
		xs := fuzzSignal(data)
		if len(xs) > 300 {
			xs = xs[:300]
		}
		m := int(mb % 4)
		var ws Workspace
		se1, se2, err := ws.SampleKPair(xs, m, k1, k2)
		w1, err1 := new(Workspace).SampleK(xs, m, k1)
		w2, err2 := new(Workspace).SampleK(xs, m, k2)
		wantErr := err1
		if wantErr == nil {
			wantErr = err2
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("m=%d k=(%v, %v): error %v, two calls %v", m, k1, k2, err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameBits(se1, w1) || !sameBits(se2, w2) {
			t.Fatalf("m=%d k=(%v, %v) over %v: pair (%v, %v), two calls (%v, %v)", m, k1, k2, xs, se1, se2, w1, w2)
		}
		if len(xs) == 0 {
			return
		}
		sd := stats.StdDev(xs)
		if b1, b2 := bruteSample(xs, m, k1*sd), bruteSample(xs, m, k2*sd); !sameBits(se1, b1) || !sameBits(se2, b2) {
			t.Fatalf("m=%d k=(%v, %v) over %v: pair (%v, %v), brute (%v, %v)", m, k1, k2, xs, se1, se2, b1, b2)
		}
	})
}

// TestRenyiAlpha2MatchesPow pins the α = 2 shortcut: p·p equals
// math.Pow(p, 2) bit for bit for every bin probability c/total a
// histogram can produce, and the estimator equals the Pow-summing one.
func TestRenyiAlpha2MatchesPow(t *testing.T) {
	check := func(c, total int64) {
		p := float64(c) / float64(total)
		if !sameBits(p*p, math.Pow(p, 2)) {
			t.Fatalf("c=%d total=%d: p*p %v, Pow %v", c, total, p*p, math.Pow(p, 2))
		}
	}
	for _, ct := range [][2]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 3}, {1, 1 << 62}, {1, math.MaxInt64},
		{math.MaxInt64 - 1, math.MaxInt64}, {3, 1<<53 + 1},
	} {
		check(ct[0], ct[1])
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		total := rng.Int63n(1<<(1+rng.Intn(62))) + 1
		check(rng.Int63n(total)+1, total)
	}

	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(300))
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64() * float64(1+trial%7))
		}
		nbins := 1 + rng.Intn(40)
		got, err := ws.RenyiSignal(xs, 2, nbins)
		if err != nil {
			t.Fatal(err)
		}
		counts := stats.HistogramInto(make([]int, nbins), xs)
		var s float64
		for _, c := range counts {
			if c > 0 {
				s += math.Pow(float64(c)/float64(len(xs)), 2)
			}
		}
		if want := math.Log(s) / (1 - 2); !sameBits(got, want) {
			t.Fatalf("trial %d: RenyiSignal %v, Pow sum %v", trial, got, want)
		}
	}
}
