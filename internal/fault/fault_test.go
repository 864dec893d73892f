package fault

import (
	"encoding/json"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable plan clock: tests step it explicitly, so
// window-edge behavior is exact instead of raced against real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// armed builds an injector on a fake clock, armed at clock zero.
func armed(t *testing.T, plan *Plan) (*Injector, *fakeClock) {
	t.Helper()
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	inj.SetClock(clk.now)
	inj.Arm()
	return inj, clk
}

// TestScheduleDeterministic pins the determinism contract: the same
// plan (same seed) expands to the byte-identical schedule, across
// repeated expansions and across a JSON round trip — and the seed is
// load-bearing where jitter is in play.
func TestScheduleDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{
		{Peer: "a", Kind: KindPartition, Start: 1, Duration: 2, Repeat: 3, Period: 5, Jitter: 1.5},
		{Peer: "b", Kind: KindLatency, Start: 0.5, Duration: 10, LatencyMs: 20, Jitter: 0.3},
		{Kind: KindTornWrite, Start: 2, Duration: 1},
	}}
	ws1, err := plan.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := plan.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ws1, ws2) {
		t.Fatalf("same plan, different schedules:\n%+v\nvs\n%+v", ws1, ws2)
	}

	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	ws3, err := loaded.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ws1, ws3) {
		t.Fatal("schedule changed across a JSON round trip")
	}

	other := &Plan{Seed: 43, Rules: plan.Rules}
	ws4, err := other.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ws1, ws4) {
		t.Fatal("different seeds produced identical jittered schedules")
	}

	// The unjittered fraction default resolves at expansion.
	for _, w := range ws1 {
		if w.Kind == KindTornWrite && w.Fraction != 0.5 {
			t.Fatalf("torn-write fraction = %v, want the 0.5 default", w.Fraction)
		}
	}
}

func TestPlanValidateRejects(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Kind: "explode", Start: 0, Duration: 1}}},                        // unknown kind
		{Rules: []Rule{{Kind: KindPartition, Start: -1, Duration: 1}}},                   // negative start
		{Rules: []Rule{{Kind: KindPartition, Start: 0, Duration: 0}}},                    // no duration
		{Rules: []Rule{{Kind: KindPartition, Start: 0, Duration: 1, Repeat: 2}}},         // repeat without period
		{Rules: []Rule{{Kind: KindLatency, Start: 0, Duration: 1}}},                      // latency without latency_ms
		{Rules: []Rule{{Kind: KindThrottle, Start: 0, Duration: 1}}},                     // throttle without kbps
		{Rules: []Rule{{Kind: KindDropAfter, Start: 0, Duration: 1, AfterBytes: -1}}},    // negative threshold
		{Rules: []Rule{{Kind: KindShortWrite, Start: 0, Duration: 1, Fraction: 1}}},      // fraction out of range
		{Rules: []Rule{{Kind: KindPartition, Start: 0, Duration: 1, Jitter: -0.1}}},      // negative jitter
		{Rules: []Rule{{Kind: KindTornWrite, Start: 0, Duration: 1, Fraction: -0.0001}}}, // negative fraction
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p.Rules[0])
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if _, err := LoadPlan([]byte(`{"seed": 1, "rules": [{"kind": "partition", "start_s": 0, "duration_s": 1, "sturt_s": 3}]}`)); err == nil {
		t.Fatal("LoadPlan accepted an unknown field; typos would silently run a clean baseline")
	}
}

func TestInjectorUnarmedInert(t *testing.T) {
	inj, err := New(&Plan{Seed: 1, Rules: []Rule{{Kind: KindPartition, Start: 0, Duration: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inj.Active("any", KindPartition); ok {
		t.Fatal("unarmed injector reported an active window")
	}
}

func TestInjectorWindowsAndPeers(t *testing.T) {
	inj, clk := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "a", Kind: KindPartition, Start: 1, Duration: 1},
		{Peer: "*", Kind: KindReset, Start: 5, Duration: 1},
	}})
	if _, ok := inj.Active("a", KindPartition); ok {
		t.Fatal("window active before its start")
	}
	clk.advance(1500 * time.Millisecond)
	if _, ok := inj.Active("a", KindPartition); !ok {
		t.Fatal("window not active mid-span")
	}
	if _, ok := inj.Active("b", KindPartition); ok {
		t.Fatal("peer filter leaked to another peer")
	}
	clk.advance(time.Second) // 2.5 s: past the end
	if _, ok := inj.Active("a", KindPartition); ok {
		t.Fatal("window still active past its end")
	}
	clk.advance(3 * time.Second) // 5.5 s: inside the wildcard window
	for _, peer := range []string{"a", "b", "anything"} {
		if _, ok := inj.Active(peer, KindReset); !ok {
			t.Fatalf("wildcard window missed peer %q", peer)
		}
	}
	// Arm is idempotent: re-arming must not reset plan time to 0, where
	// the wildcard window is not active yet.
	inj.Arm()
	if _, ok := inj.Active("a", KindReset); !ok {
		t.Fatal("re-arm reset plan time")
	}
}

// pipePair wraps one end of a net.Pipe under the injector; the raw
// other end plays the remote peer.
func pipePair(inj *Injector, peer string) (wrapped, remote net.Conn) {
	a, b := net.Pipe()
	return WrapConn(a, inj, peer), b
}

func TestConnPartitionHonorsDeadline(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindPartition, Start: 0, Duration: 1000},
	}})
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()

	c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := c.Write([]byte("x"))
	var ne net.Error
	if !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("partitioned write = %v, want a net.Error timeout", err)
	}
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err = c.Read(make([]byte, 1))
	if !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("partitioned read = %v, want a net.Error timeout", err)
	}
}

func asNetError(err error, ne *net.Error) bool {
	if e, ok := err.(net.Error); ok {
		*ne = e
		return true
	}
	return false
}

func TestConnPartitionHeals(t *testing.T) {
	inj, clk := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindPartition, Start: 0, Duration: 1},
	}})
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()

	got := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("x"))
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("write completed during the partition: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	clk.advance(2 * time.Second) // heal
	buf := make([]byte, 1)
	if _, err := remote.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("healed write = %v, want nil — partitions must not lose bytes", err)
	}
}

func TestConnOneWayPartition(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindPartitionIn, Start: 0, Duration: 1000},
	}})
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()

	// Outbound unaffected...
	go remote.Read(make([]byte, 1))
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write under partition-in = %v", err)
	}
	// ...inbound stalls.
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	var ne net.Error
	if _, err := c.Read(make([]byte, 1)); !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("read under partition-in = %v, want timeout", err)
	}
}

func TestConnReset(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindReset, Start: 0, Duration: 1},
	}})
	c, remote := pipePair(inj, "p")
	defer remote.Close()

	if _, err := c.Write([]byte("x")); err != ErrReset {
		t.Fatalf("write in a reset window = %v, want ErrReset", err)
	}
	// The reset is terminal: the conn stays dead after the window.
	if _, err := c.Read(make([]byte, 1)); err != ErrReset {
		t.Fatalf("read after reset = %v, want ErrReset", err)
	}
	// The peer sees the close.
	if _, err := remote.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestConnDropAfterGoesHalfOpen(t *testing.T) {
	inj, clk := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindDropAfter, Start: 0, Duration: 1, AfterBytes: 4},
	}})
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()

	// Under the threshold the conn behaves.
	go remote.Write([]byte("abcd"))
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Threshold reached: writes black-hole (report success, deliver
	// nothing), reads hang forever — the silent half-open failure mode.
	if n, err := c.Write([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("half-open write = (%d, %v), want silent (4, nil)", n, err)
	}
	remote.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := remote.Read(buf); err == nil {
		t.Fatal("black-holed bytes reached the peer")
	}
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	var ne net.Error
	if _, err := c.Read(buf); !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("half-open read = %v, want timeout", err)
	}
	// Half-open is permanent: the window closing does not resurrect the
	// conn (the real peer's host is gone; only a reap helps).
	clk.advance(time.Minute)
	if n, err := c.Write([]byte("still")); n != 5 || err != nil {
		t.Fatalf("write after window closed = (%d, %v), want (5, nil)", n, err)
	}
}

func TestConnShortWrite(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindShortWrite, Start: 0, Duration: 1, Fraction: 0.5},
	}})
	c, remote := pipePair(inj, "p")
	defer remote.Close()

	read := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := remote.Read(buf)
		read <- buf[:n]
	}()
	n, err := c.Write([]byte("0123456789"))
	if err != ErrTorn {
		t.Fatalf("short write error = %v, want ErrTorn", err)
	}
	if n != 5 {
		t.Fatalf("short write wrote %d bytes, want 5 (fraction 0.5)", n)
	}
	if got := <-read; string(got) != "01234" {
		t.Fatalf("peer holds %q, want the torn prefix \"01234\"", got)
	}
	// The tear kills the conn: the peer's next read sees it die.
	if _, err := remote.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a torn write")
	}
}

func TestConnLatency(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Peer: "p", Kind: KindLatency, Start: 0, Duration: 1000, LatencyMs: 40},
	}})
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()

	go remote.Read(make([]byte, 1))
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("latency window delayed the write only %v, want ≥ ~40ms", elapsed)
	}
}

func TestConnUnarmedPassthrough(t *testing.T) {
	inj, err := New(&Plan{Seed: 1, Rules: []Rule{
		{Kind: KindPartition, Start: 0, Duration: 1000},
		{Kind: KindReset, Start: 0, Duration: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, remote := pipePair(inj, "p")
	defer c.Close()
	defer remote.Close()
	go remote.Read(make([]byte, 1))
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write through an unarmed injector = %v", err)
	}
	if WrapConn(nil, nil, "p") != nil {
		t.Fatal("nil injector must wrap to the conn itself")
	}
}

func TestListenerAcceptStall(t *testing.T) {
	inj, err := New(&Plan{Seed: 1, Rules: []Rule{
		{Peer: "ln", Kind: KindAcceptStall, Start: 0, Duration: 0.15},
	}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(raw, inj, "ln")
	defer ln.Close()
	inj.Arm()

	dial, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dial.Close()
	start := time.Now()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("accept returned after %v, want the ~150ms stall window", elapsed)
	}
	if _, ok := conn.(*Conn); !ok {
		t.Fatalf("accepted conn is %T, want a fault-wrapped *Conn", conn)
	}
}

func TestDialBlockedByPartition(t *testing.T) {
	inj, _ := armed(t, &Plan{Seed: 1, Rules: []Rule{
		{Kind: KindPartition, Start: 0, Duration: 1000},
	}})
	start := time.Now()
	_, err := inj.Dial("127.0.0.1:1", 50*time.Millisecond)
	var ne net.Error
	if !asNetError(err, &ne) || !ne.Timeout() {
		t.Fatalf("partitioned dial = %v, want a net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("dial gave up after %v, before its timeout", elapsed)
	}
}
