package fault

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Rule is one declarative fault: a kind, a peer filter, a timed window
// (seconds from Injector.Arm), and optional repetition. Fields not
// meaningful for the kind are ignored.
type Rule struct {
	// Peer filters which connections/stores the rule hits: the dial
	// address for client-side conns, the listener label server-side,
	// the store label for store faults. "" or "*" matches everything.
	Peer string `json:"peer,omitempty"`
	Kind Kind   `json:"kind"`
	// Start and Duration place the first window, in seconds from Arm.
	Start    float64 `json:"start_s"`
	Duration float64 `json:"duration_s"`
	// Repeat adds that many further windows (total Repeat+1), spaced
	// Period seconds start-to-start. Jitter shifts each occurrence by a
	// seeded uniform draw in [0, Jitter) seconds — drawn at schedule
	// expansion, so the same Plan seed always yields the same shifts.
	Repeat int     `json:"repeat,omitempty"`
	Period float64 `json:"period_s,omitempty"`
	Jitter float64 `json:"jitter_s,omitempty"`
	// Kind parameters.
	LatencyMs  float64 `json:"latency_ms,omitempty"`  // latency, store-latency, accept-stall grace
	KBps       float64 `json:"kbps,omitempty"`        // throttle
	AfterBytes int64   `json:"after_bytes,omitempty"` // drop-after
	Fraction   float64 `json:"fraction,omitempty"`    // short-write, torn-write (default 0.5)
}

// Plan is a replayable chaos schedule: a seed plus rules. Expansion
// (Schedule) is the only place randomness enters, so Plan + seed fully
// determine every fault the run will see.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate rejects rules the scheduler cannot expand deterministically
// or whose kind parameters are missing.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, r := range p.Rules {
		where := fmt.Sprintf("fault: rule %d (%s)", i, r.Kind)
		if !r.Kind.valid() {
			return fmt.Errorf("fault: rule %d: unknown kind %q", i, r.Kind)
		}
		if r.Start < 0 {
			return fmt.Errorf("%s: negative start %v", where, r.Start)
		}
		if r.Duration <= 0 {
			return fmt.Errorf("%s: duration must be positive, got %v", where, r.Duration)
		}
		if r.Repeat < 0 {
			return fmt.Errorf("%s: negative repeat %d", where, r.Repeat)
		}
		if r.Repeat > 0 && r.Period <= 0 {
			return fmt.Errorf("%s: repeat %d needs a positive period_s", where, r.Repeat)
		}
		if r.Jitter < 0 {
			return fmt.Errorf("%s: negative jitter %v", where, r.Jitter)
		}
		switch r.Kind {
		case KindLatency, KindStoreLatency:
			if r.LatencyMs <= 0 {
				return fmt.Errorf("%s: latency_ms must be positive", where)
			}
		case KindThrottle:
			if r.KBps <= 0 {
				return fmt.Errorf("%s: kbps must be positive", where)
			}
		case KindDropAfter:
			if r.AfterBytes < 0 {
				return fmt.Errorf("%s: negative after_bytes", where)
			}
		case KindShortWrite, KindTornWrite:
			// Fraction 0 selects the 0.5 default at expansion.
			if r.Fraction < 0 || r.Fraction >= 1 {
				return fmt.Errorf("%s: fraction must be in [0,1), got %v", where, r.Fraction)
			}
		}
	}
	return nil
}

// Window is one expanded fault occurrence with resolved parameters;
// times are offsets from Injector.Arm.
type Window struct {
	Peer       string
	Kind       Kind
	Start, End time.Duration
	Latency    time.Duration
	KBps       float64
	AfterBytes int64
	Fraction   float64
}

func (w Window) matches(peer string) bool {
	return w.Peer == "" || w.Peer == "*" || w.Peer == peer
}

// Schedule expands the plan into its window list — the sole source of
// randomness, seeded by Plan.Seed, so repeated calls (and repeated
// runs) produce the byte-identical schedule. Windows sort by start
// time, then peer, then kind.
func (p *Plan) Schedule() ([]Window, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var ws []Window
	for _, r := range p.Rules {
		frac := r.Fraction
		if frac == 0 {
			frac = 0.5
		}
		for occ := 0; occ <= r.Repeat; occ++ {
			start := r.Start + float64(occ)*r.Period
			if r.Jitter > 0 {
				start += rng.Float64() * r.Jitter
			}
			ws = append(ws, Window{
				Peer:       r.Peer,
				Kind:       r.Kind,
				Start:      time.Duration(start * float64(time.Second)),
				End:        time.Duration((start + r.Duration) * float64(time.Second)),
				Latency:    time.Duration(r.LatencyMs * float64(time.Millisecond)),
				KBps:       r.KBps,
				AfterBytes: r.AfterBytes,
				Fraction:   frac,
			})
		}
	}
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].Start != ws[j].Start {
			return ws[i].Start < ws[j].Start
		}
		if ws[i].Peer != ws[j].Peer {
			return ws[i].Peer < ws[j].Peer
		}
		return ws[i].Kind < ws[j].Kind
	})
	return ws, nil
}

// LoadPlan parses a JSON plan, rejecting unknown fields and invalid
// rules — a typo in a chaos plan must fail loudly, not silently run a
// clean baseline.
func LoadPlan(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
