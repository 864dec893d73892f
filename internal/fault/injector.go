package fault

import (
	"net"
	"sync"
	"time"
)

// Injector evaluates a Plan's expanded schedule against a clock. It is
// the shared state behind every wrapped connection, listener, and
// store of one chaos run: construction expands the schedule (all
// randomness happens there), Arm starts plan time, and Active answers
// "is this fault on for this peer right now" by pure comparison — so
// two runs with the same plan, clock, and traffic see identical
// faults.
//
// The clock is injectable (SetClock) for schedule-evaluation tests;
// production and the chaos matrix run on time.Now. The injector itself
// never draws randomness after construction.
type Injector struct {
	windows []Window
	plan    Plan

	mu    sync.Mutex
	now   func() time.Time
	epoch time.Time // zero until Arm
}

// New expands the plan and returns an unarmed injector. A nil plan
// yields an injector that never fires (all wrappers pass through).
func New(plan *Plan) (*Injector, error) {
	in := &Injector{now: time.Now}
	if plan == nil {
		return in, nil
	}
	ws, err := plan.Schedule()
	if err != nil {
		return nil, err
	}
	in.plan = *plan
	in.windows = ws
	return in, nil
}

// SetClock replaces the injector's clock; call before Arm. Tests use
// it to step plan time without sleeping.
func (in *Injector) SetClock(now func() time.Time) {
	in.mu.Lock()
	in.now = now
	in.mu.Unlock()
}

// Arm starts plan time: window offsets count from the first Arm.
// Idempotent — later calls keep the original epoch, so a process can
// arm at boot and again defensively before a run.
func (in *Injector) Arm() {
	in.mu.Lock()
	if in.epoch.IsZero() {
		in.epoch = in.now() //selflearn:locked-ok the clock is a leaf (time.Now or a test fake); it never re-enters the injector
	}
	in.mu.Unlock()
}

// Windows returns a copy of the expanded schedule.
func (in *Injector) Windows() []Window {
	out := make([]Window, len(in.windows))
	copy(out, in.windows)
	return out
}

// Active reports whether a kind window covering peer is open at the
// current plan time, returning the first such window. Always false
// before Arm — wrappers built ahead of the run are inert until it
// starts.
func (in *Injector) Active(peer string, kind Kind) (Window, bool) {
	in.mu.Lock()
	epoch, now := in.epoch, in.now
	in.mu.Unlock()
	if epoch.IsZero() || len(in.windows) == 0 {
		return Window{}, false
	}
	elapsed := now().Sub(epoch)
	for _, w := range in.windows {
		if w.Kind == kind && w.matches(peer) && elapsed >= w.Start && elapsed < w.End {
			return w, true
		}
	}
	return Window{}, false
}

// blocked reports whether an operation direction is currently gated for
// peer: full partitions block both, one-way partitions their own side.
func (in *Injector) blocked(peer string, read bool) bool {
	if _, ok := in.Active(peer, KindPartition); ok {
		return true
	}
	if read {
		_, ok := in.Active(peer, KindPartitionIn)
		return ok
	}
	_, ok := in.Active(peer, KindPartitionOut)
	return ok
}

// Dial is a cluster.Options.Dialer under this injector's plan: a dial
// toward a partitioned peer blocks like a dropped SYN until the window
// heals or the timeout elapses, and the returned connection is wrapped
// so the remaining conn faults apply. Peer label = dial address.
func (in *Injector) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for in.blocked(addr, false) || in.blocked(addr, true) {
		if time.Now().After(deadline) {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errTimeout{}}
		}
		time.Sleep(pollInterval)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, in, addr), nil
}
