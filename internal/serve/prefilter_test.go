package serve

import (
	"testing"

	"selflearn/internal/rt"
)

// gateBatch is a one-second two-channel batch whose every sample has
// magnitude amp; its stage-1 statistic is rt.BatchAmplitude of it.
func gateBatch(amp float64) (c0, c1 []float64) {
	c0, c1 = make([]float64, testRate), make([]float64, testRate)
	for i := range c0 {
		c0[i], c1[i] = amp, -amp
	}
	return c0, c1
}

// warmClient builds a client gating at factor 2 over an 8-window
// baseline and feeds it the 4 cold windows that always ship, so every
// later batch near amplitude 1 is suppressed.
func warmClient(t *testing.T, auditEvery int) *PrefilterClient {
	t.Helper()
	p, err := NewPrefilterClient(PrefilterConfig{
		Gate:       rt.GateConfig{Factor: 2, HistoryWindows: 8},
		AuditEvery: auditEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a := p.Decide(gateBatch(1)); !a.Ship || a.Flush.Windows != 0 {
			t.Fatalf("cold window %d: %+v, want a ship with nothing pending", i, a)
		}
	}
	return p
}

// quietAmp varies suppressed amplitudes within ±10 % of the baseline,
// so digest sums, minima and maxima are all exercised.
func quietAmp(k int) float64 { return 1 + 0.1*float64(k%5-2)/2 }

// spanDigest is the reference digest of suppressed windows lo..hi
// (1-based, inclusive), folded in stream order.
func spanDigest(lo, hi int) Digest {
	var d Digest
	for k := lo; k <= hi; k++ {
		amp := rt.BatchAmplitude(gateBatch(quietAmp(k)))
		if d.Windows == 0 || amp < d.MinAmp {
			d.MinAmp = amp
		}
		if d.Windows == 0 || amp > d.MaxAmp {
			d.MaxAmp = amp
		}
		d.Windows++
		d.SumAmp += amp
	}
	return d
}

// checkAuditSchedule feeds n suppressed windows and checks that exactly
// every period-th one returns Audit with the span since the previous
// audit as its Flush, and that every other window sends nothing.
func checkAuditSchedule(t *testing.T, p *PrefilterClient, period, n int) {
	t.Helper()
	for k := 1; k <= n; k++ {
		a := p.Decide(gateBatch(quietAmp(k)))
		if a.Ship {
			t.Fatalf("window %d shipped; the gate should suppress it", k)
		}
		if k%period == 0 {
			if want := spanDigest(k-period+1, k); !a.Audit || a.Flush != want {
				t.Fatalf("window %d: %+v, want an audit flushing %+v", k, a, want)
			}
		} else if a.Audit || a.Flush.Windows != 0 {
			t.Fatalf("window %d: %+v, want nothing sent", k, a)
		}
	}
	if p.Suppressed() != uint64(n) || p.Samples() != uint64(n/period) {
		t.Fatalf("Suppressed() = %d, Samples() = %d; want %d and %d", p.Suppressed(), p.Samples(), n, n/period)
	}
}

func TestPrefilterClientAuditsEveryNth(t *testing.T) {
	checkAuditSchedule(t, warmClient(t, 4), 4, 40)
}

func TestPrefilterClientAuditEveryZeroIsDefault(t *testing.T) {
	checkAuditSchedule(t, warmClient(t, 0), DefaultAuditEvery, 3*DefaultAuditEvery+5)
}

// TestPrefilterClientQuietStreamFlushes: with audits rarer than the
// digest span, a quiet stream still flushes every digestSpanMax windows.
func TestPrefilterClientQuietStreamFlushes(t *testing.T) {
	p := warmClient(t, 10*digestSpanMax)
	const n = 3*digestSpanMax + 5
	for k := 1; k <= n; k++ {
		a := p.Decide(gateBatch(quietAmp(k)))
		if a.Ship || a.Audit {
			t.Fatalf("window %d: %+v, want suppressed and unsampled", k, a)
		}
		if k%digestSpanMax == 0 {
			if want := spanDigest(k-digestSpanMax+1, k); a.Flush != want {
				t.Fatalf("window %d flushed %+v, want %+v", k, a.Flush, want)
			}
		} else if a.Flush.Windows != 0 {
			t.Fatalf("window %d flushed %+v early", k, a.Flush)
		}
	}
	if want := spanDigest(n-4, n); p.Final() != want {
		t.Fatalf("Final() did not return the %d pending windows", want.Windows)
	}
	if d := p.Final(); d.Windows != 0 {
		t.Fatalf("second Final() = %+v, want empty", d)
	}
	if p.Suppressed() != n || p.Samples() != 0 {
		t.Fatalf("Suppressed() = %d, Samples() = %d; want %d and 0", p.Suppressed(), p.Samples(), n)
	}
}

// TestPrefilterClientShipCarriesPendingDigest: a window the gate ships
// flushes the suppressed span before it, and leaves nothing pending.
func TestPrefilterClientShipCarriesPendingDigest(t *testing.T) {
	p := warmClient(t, 4)
	for k := 1; k <= 3; k++ {
		if a := p.Decide(gateBatch(quietAmp(k))); a.Ship || a.Audit || a.Flush.Windows != 0 {
			t.Fatalf("window %d: %+v, want suppressed with nothing sent", k, a)
		}
	}
	if a := p.Decide(gateBatch(10)); !a.Ship || a.Audit || a.Flush != spanDigest(1, 3) {
		t.Fatalf("loud window: %+v, want a ship flushing %+v", a, spanDigest(1, 3))
	}
	if d := p.Final(); d.Windows != 0 {
		t.Fatalf("digest pending after the ship: %+v", d)
	}
	if p.Suppressed() != 3 || p.Samples() != 0 {
		t.Fatalf("Suppressed() = %d, Samples() = %d; want 3 and 0", p.Suppressed(), p.Samples())
	}
}
