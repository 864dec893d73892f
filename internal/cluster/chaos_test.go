package cluster

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"selflearn/internal/fault"
	"selflearn/internal/ml/forest"
	"selflearn/internal/serve"
	"selflearn/internal/serve/servetest"
)

// This file is the chaos matrix: TestChaosMatrix pins the cluster
// invariants under injected infrastructure failure — partitions, torn
// checkpoints, slow links, flapping links, reset storms, half-open
// connections — the messy failures a SIGTERM-based failover test never
// exercises. Every scenario runs under a seeded fault.Plan and runs
// TWICE per test with identical signatures required, so a chaos run is
// as replayable as a clean one. Each run asserts, end to end:
//
//   - no lost confirms (every shard and the router count zero dropped)
//   - per-patient model versions strictly monotonic on every shard
//   - post-heal alarms bit-identical to an uninterrupted witness
//   - no leaked goroutines (servetest.CheckGoroutines)
//   - no stream stuck past its deadline (every await is bounded)

// trainWindows is the feature-window count of the 150 s training
// recording: 4 s windows sliding by 1 s.
const trainWindows = 150 - 4 + 1

// chaosLog is a per-shard synchronous event sink: unlike the router's
// merged channel it never drops, so it is the authoritative record of
// what a shard served — alarm stream times (the bit-identity witness)
// and the model-version install sequence (the monotonicity witness).
type chaosLog struct {
	mu       sync.Mutex
	alarms   map[string][]float64
	versions map[string][]uint64
}

func newChaosLog() *chaosLog {
	return &chaosLog{alarms: map[string][]float64{}, versions: map[string][]uint64{}}
}

func (l *chaosLog) sink(ev serve.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev.Kind {
	case serve.EventAlarm:
		l.alarms[ev.Patient] = append(l.alarms[ev.Patient], ev.StreamTime)
	case serve.EventModelUpdated:
		l.versions[ev.Patient] = append(l.versions[ev.Patient], ev.Version)
	}
}

func (l *chaosLog) alarmTimes(patient string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.alarms[patient]...)
}

// checkMonotonic fails the test unless every patient's install sequence
// on this shard is strictly increasing — a replayed replication push or
// a failover transfer regressing a version would surface here.
func (l *chaosLog) checkMonotonic(t *testing.T, label string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for p, vs := range l.versions {
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				t.Fatalf("%s: patient %s model versions not strictly monotonic: %v", label, p, vs)
			}
		}
	}
}

// versionString renders the install sequences deterministically for the
// rerun signature.
func (l *chaosLog) versionString() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.versions))
	for p := range l.versions {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, p := range keys {
		fmt.Fprintf(&b, "%s=%v;", p, l.versions[p])
	}
	return b.String()
}

// chaosConfig parameterizes one fleet bring-up.
type chaosConfig struct {
	patient string
	// plan builds the fault plan once the home/replica addresses are
	// known (listener ports are ephemeral, so rules that target one side
	// of the fleet must reference it by role).
	plan func(home, replica string) *fault.Plan
	// tornStore gives the home shard a FileStore wrapped in the fault
	// store (label "store"), for checkpoint-corruption scenarios.
	tornStore bool
	// listenFault wraps the home shard's listener under the plan with
	// label "listen-home", for server-side fault scenarios.
	listenFault bool
	// readIdle overrides the home shard's ReadIdleTimeout.
	readIdle time.Duration
	// pingTimeout overrides the router's PingTimeout (default 150 ms).
	// Slow-link scenarios need it: a throttled 64 KB flush can hold the
	// write mutex long enough to starve the ping probe, and a degraded
	// link must read as slow, not dead.
	pingTimeout time.Duration
}

// chaosFleet is a two-shard replicated fleet plus a router, all dialing
// through one UNARMED injector: construction and the training phase run
// fault-free, and the scenario arms the plan exactly when its fault
// phase begins — plan time zero is the arm instant, not fleet boot.
type chaosFleet struct {
	t        *testing.T
	inj      *fault.Injector
	shards   [2]*testShard
	logs     [2]*chaosLog
	addrs    [2]string
	home     int // index of the patient's rendezvous home shard
	replica  int
	storeDir string
	r        *Router
	h        *serve.Stream
	patient  string
}

func startChaosFleet(t *testing.T, cfg chaosConfig) *chaosFleet {
	t.Helper()
	f := &chaosFleet{t: t, patient: cfg.patient}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.addrs[i] = ln.Addr().String()
	}
	// Roles follow the rendezvous, so the scenario is invariant to which
	// ephemeral port sorts where — the fault plan always hits the side it
	// names, and the rerun signature never depends on port numbers.
	f.home, f.replica = 0, 1
	sA, sB := rendezvousScore(f.addrs[0], cfg.patient), rendezvousScore(f.addrs[1], cfg.patient)
	if !rendezvousLess(f.addrs[0], sA, f.addrs[1], sB) {
		f.home, f.replica = 1, 0
	}

	inj, err := fault.New(cfg.plan(f.addrs[f.home], f.addrs[f.replica]))
	if err != nil {
		t.Fatal(err)
	}
	f.inj = inj

	fleet := []string{f.addrs[0], f.addrs[1]}
	for i := range f.shards {
		f.logs[i] = newChaosLog()
		opts := []serve.Option{serve.WithEventBuffer(4096), serve.WithEventSink(f.logs[i].sink)}
		if cfg.tornStore && i == f.home {
			f.storeDir = t.TempDir()
			fs, err := serve.NewFileStore(f.storeDir)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, serve.WithModelStore(fault.NewStore(fs, inj, "store")))
		}
		srv, err := serve.New(testServerConfig(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ln := lns[i]
		if cfg.listenFault && i == f.home {
			ln = fault.NewListener(ln, inj, "listen-home")
		}
		sopts := Options{
			Replication:   &ReplicationConfig{Self: f.addrs[i], Fleet: fleet, Replicas: 1},
			WriteDeadline: time.Second,
			Dialer:        inj.Dial,
		}
		if cfg.readIdle > 0 && i == f.home {
			sopts.ReadIdleTimeout = cfg.readIdle
		}
		f.shards[i] = &testShard{srv: srv, ss: Serve(srv, ln, sopts)}
	}

	pingTimeout := cfg.pingTimeout
	if pingTimeout == 0 {
		pingTimeout = 150 * time.Millisecond
	}
	// Short deadlines everywhere: failure detection (and teardown, which
	// waits behind at most one gated write) must run at test speed, and a
	// partitioned dial must give up in 500 ms, not the 3 s default.
	f.r, err = Dial(fleet, Options{
		DialTimeout:      500 * time.Millisecond,
		PingInterval:     25 * time.Millisecond,
		PingTimeout:      pingTimeout,
		ReconnectBackoff: 20 * time.Millisecond,
		WriteDeadline:    500 * time.Millisecond,
		Dialer:           inj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.h, err = f.r.Open(cfg.patient)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *chaosFleet) close() {
	f.r.Close()
	for _, s := range f.shards {
		s.stop()
	}
}

func (f *chaosFleet) homeShard() *testShard    { return f.shards[f.home] }
func (f *chaosFleet) replicaShard() *testShard { return f.shards[f.replica] }

// pollUntil is the bounded wait every chaos phase runs under — a stream
// stuck past its deadline is itself an invariant violation.
func pollUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not true after %v", what, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func awaitShardWindows(t *testing.T, ts *testShard, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for ts.srv.Snapshot().Windows < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still %d windows after 60s, want %d (stats %+v)",
				what, ts.srv.Snapshot().Windows, want, ts.srv.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := ts.srv.Snapshot().Windows; got != want {
		t.Fatalf("%s: windows = %d, want exactly %d", what, got, want)
	}
}

// train runs the self-learning phase: stream a 150 s recording with a
// seizure, confirm it, wait for the retrain on the home shard and the
// replica install on the other — the state every scenario's fault phase
// starts from. armBeforeConfirm arms the plan between the stream and
// the confirmation, for plans that must fault the retrain's checkpoint
// save. Returns the replica's model — the reference checkpoint for
// failover witnesses (it crossed the wire, so the witness classifies
// with exactly the representation a failed-over patient gets).
func (f *chaosFleet) train(armBeforeConfirm bool) (*forest.FlatForest, uint64) {
	t := f.t
	t.Helper()
	push(t, f.h, testRecording(t, 21, 150, 80, 22))
	if armBeforeConfirm {
		f.inj.Arm()
	}
	confirm(t, f.h)
	pollUntil(t, 60*time.Second, "home retrain", func() bool {
		return f.homeShard().srv.Snapshot().Retrains >= 1
	})
	awaitModelVersion(t, f.homeShard().srv, f.patient, 1, "home publish")
	v := awaitModelVersion(t, f.replicaShard().srv, f.patient, 1, "replication to the replica shard")
	pollUntil(t, 30*time.Second, "router version table", func() bool {
		return f.r.ModelVersions()[f.patient] >= v
	})
	awaitShardWindows(t, f.homeShard(), trainWindows, "training drain")
	m, mv := f.replicaShard().srv.ModelVersioned(f.patient)
	if m == nil {
		t.Fatal("no replica checkpoint after training")
	}
	return m, mv
}

// checkNoLostConfirms asserts the no-lost-confirms ledger: every
// confirm the run submitted was served by exactly one shard; none died
// in a queue, on a socket, or in admission.
func (f *chaosFleet) checkNoLostConfirms(wantServed uint64) {
	t := f.t
	t.Helper()
	var served uint64
	for i, s := range f.shards {
		st := s.srv.Snapshot()
		if st.ConfirmsDropped != 0 {
			t.Fatalf("shard %d dropped %d confirms", i, st.ConfirmsDropped)
		}
		served += st.Confirms
	}
	if got := f.r.confirmsDropped.Load(); got != 0 {
		t.Fatalf("router lost %d confirms in transit", got)
	}
	if served != wantServed {
		t.Fatalf("confirms served = %d, want %d", served, wantServed)
	}
}

func (f *chaosFleet) checkMonotonicVersions() {
	f.logs[0].checkMonotonic(f.t, "shard 0")
	f.logs[1].checkMonotonic(f.t, "shard 1")
}

// awaitPlanIdle waits until plan time, which the injector started no
// later than armed, has passed the last fault window (plus margin for
// in-flight detection), so flap-style scenarios can stream their
// post-heal phase against a quiet network.
func awaitPlanIdle(t *testing.T, inj *fault.Injector, armed time.Time) {
	t.Helper()
	var last time.Duration
	for _, w := range inj.Windows() {
		if w.End > last {
			last = w.End
		}
	}
	pollUntil(t, last+10*time.Second, "fault plan drained", func() bool {
		return time.Since(armed) > last+300*time.Millisecond
	})
}

// referenceTail serves the identical post-failover tail on a fresh
// single-process server seeded with the replica checkpoint — the
// uninterrupted witness a warm failover must match bit for bit.
func referenceTail(t *testing.T, patient string, model *forest.FlatForest, version uint64, c0, c1 []float64) (windows uint64, alarms []float64) {
	t.Helper()
	log := newChaosLog()
	refSrv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096), serve.WithEventSink(log.sink))
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	if !refSrv.InstallModel(patient, model, version) {
		t.Fatal("reference server refused the checkpoint")
	}
	h, err := refSrv.Open(patient)
	if err != nil {
		t.Fatal(err)
	}
	pushSamples(t, h, c0, c1)
	refSrv.Close()
	return refSrv.Snapshot().Windows, log.alarmTimes(patient)
}

func fmtTimes(ts []float64) string {
	parts := make([]string, len(ts))
	for i, v := range ts {
		parts[i] = fmt.Sprintf("%.6f", v)
	}
	return strings.Join(parts, ",")
}

func sameTimes(a, b []float64) bool { return fmtTimes(a) == fmtTimes(b) }

// chaosFailoverTail drives phase two of a failover scenario: stream
// 60 s of a fresh recording to the home shard, break the home via
// breakHome, wait for the reroute, and serve the remaining 90 s —
// including the seizure at 100 s — from the replica. It asserts the
// tail matches the uninterrupted reference bit for bit and returns the
// run's signature for the rerun comparison.
func chaosFailoverTail(f *chaosFleet, refModel *forest.FlatForest, refVersion uint64, breakHome func()) string {
	t := f.t
	t.Helper()
	const killAt = 60
	rec := testRecording(t, 22, 150, 100, 22)
	c0, c1 := rec.Data[0], rec.Data[1]
	pushSamples(t, f.h, c0[:killAt*testRate], c1[:killAt*testRate])
	// Drain the head completely before breaking the home: nothing may be
	// queued when the link dies, so the only batches the fault can touch
	// are ones the retry loop re-sends — losses stay observable, counts
	// stay exact.
	awaitShardWindows(t, f.homeShard(), trainWindows+killAt, "pre-fault head drain")

	breakHome()
	homeConn := f.r.shards[f.home]
	pollUntil(t, 15*time.Second, "failover off the home shard", func() bool {
		sc, err := f.r.pick(f.patient)
		return err == nil && sc != homeConn
	})
	pushSamples(t, f.h, c0[killAt*testRate:], c1[killAt*testRate:])
	const wantTail = 150 - killAt - 4 + 1
	awaitShardWindows(t, f.replicaShard(), wantTail, "failover tail drain")

	refWindows, refAlarms := referenceTail(t, f.patient, refModel, refVersion, c0[killAt*testRate:], c1[killAt*testRate:])
	if refWindows != wantTail {
		t.Fatalf("reference windows = %d, want %d", refWindows, wantTail)
	}
	if len(refAlarms) == 0 {
		t.Fatal("reference tail raised no alarms; bit-identity would be vacuous")
	}
	tailAlarms := f.logs[f.replica].alarmTimes(f.patient)
	if !sameTimes(tailAlarms, refAlarms) {
		t.Fatalf("post-heal alarms diverged from the uninterrupted witness:\n  failover:  [%s]\n  reference: [%s]",
			fmtTimes(tailAlarms), fmtTimes(refAlarms))
	}
	// Warmth must come from replication, not a retrain on the replica.
	if rs := f.replicaShard().srv.Snapshot(); rs.Retrains != 0 {
		t.Fatalf("replica retrained (%d×); tail warmth is not replication's", rs.Retrains)
	}
	return fmt.Sprintf("tail=[%s] head=[%s] v0=%s v1=%s",
		fmtTimes(tailAlarms), fmtTimes(f.logs[f.home].alarmTimes(f.patient)),
		f.logs[0].versionString(), f.logs[1].versionString())
}

// chaosHealedRun drives a full-link-chaos scenario: after training, arm
// the plan (flaps or resets hit the idle links), wait for it to drain,
// then stream a full second recording through the healed home — the
// server-side serving state must have survived every teardown
// untouched, so the whole run matches a single-process server fed the
// identical sequence.
func chaosHealedRun(t *testing.T, cfg chaosConfig) string {
	t.Helper()
	f := startChaosFleet(t, cfg)
	defer f.close()
	f.train(false)

	f.inj.Arm()
	awaitPlanIdle(t, f.inj, time.Now())
	// The post-heal stream must land on the healed home, not fail over:
	// wait until the router routes the patient there again.
	pollUntil(t, 15*time.Second, "home link re-established", func() bool {
		sc, err := f.r.pick(f.patient)
		return err == nil && sc == f.r.shards[f.home]
	})
	rec := testRecording(t, 22, 150, 100, 22)
	push(t, f.h, rec)
	awaitShardWindows(t, f.homeShard(), trainWindows+150, "post-heal drain")
	if got := f.replicaShard().srv.Snapshot().Windows; got != 0 {
		t.Fatalf("replica served %d windows; the stream strayed off its healed home", got)
	}

	// Uninterrupted witness: a local server fed the identical sequence.
	log := newChaosLog()
	refSrv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096), serve.WithEventSink(log.sink))
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	h, err := refSrv.Open(f.patient)
	if err != nil {
		t.Fatal(err)
	}
	push(t, h, testRecording(t, 21, 150, 80, 22))
	confirm(t, h)
	pollUntil(t, 60*time.Second, "witness retrain", func() bool {
		return refSrv.Snapshot().Retrains >= 1
	})
	push(t, h, rec)
	refSrv.Close()

	refAlarms := log.alarmTimes(f.patient)
	gotAlarms := f.logs[f.home].alarmTimes(f.patient)
	if len(refAlarms) == 0 {
		t.Fatal("witness raised no alarms; continuity would be vacuous")
	}
	if !sameTimes(gotAlarms, refAlarms) {
		t.Fatalf("post-heal alarms diverged from the uninterrupted witness:\n  chaos:     [%s]\n  reference: [%s]",
			fmtTimes(gotAlarms), fmtTimes(refAlarms))
	}
	f.checkNoLostConfirms(1)
	f.checkMonotonicVersions()
	return fmt.Sprintf("alarms=[%s] v0=%s v1=%s",
		fmtTimes(gotAlarms), f.logs[0].versionString(), f.logs[1].versionString())
}

// chaosPartitionDuringReplay: the home shard is fully partitioned
// mid-replay (dials block, established conns stall both ways); the
// router's ping probe detects it and the tail fails over warm.
func chaosPartitionDuringReplay(t *testing.T) string {
	f := startChaosFleet(t, chaosConfig{
		patient: "chaos-partition",
		plan: func(home, replica string) *fault.Plan {
			// One long window: the partition outlives the run, so the
			// stream cannot flap back to the home mid-tail.
			return &fault.Plan{Seed: 801, Rules: []fault.Rule{
				{Peer: home, Kind: fault.KindPartition, Start: 0, Duration: 120},
			}}
		},
	})
	defer f.close()
	refModel, refVersion := f.train(false)
	sig := chaosFailoverTail(f, refModel, refVersion, f.inj.Arm)
	f.checkNoLostConfirms(1)
	f.checkMonotonicVersions()
	return sig
}

// chaosTornCheckpoint: the retrain's checkpoint save is torn mid-write
// (crash-during-save), then the home dies. Replication pushes from
// memory, so the replica is warm anyway — and the torn file on disk
// must be quarantined, never trusted, on the next load.
func chaosTornCheckpoint(t *testing.T) string {
	f := startChaosFleet(t, chaosConfig{
		patient:   "chaos-torn",
		tornStore: true,
		plan: func(home, replica string) *fault.Plan {
			return &fault.Plan{Seed: 802, Rules: []fault.Rule{
				{Peer: "store", Kind: fault.KindTornWrite, Start: 0, Duration: 300, Fraction: 0.5},
			}}
		},
	})
	defer f.close()
	refModel, refVersion := f.train(true) // arm before confirm: the retrain saves torn
	if got := f.homeShard().srv.Snapshot().StoreErrors; got == 0 {
		t.Fatal("no store errors recorded; the torn write did not happen")
	}
	sig := chaosFailoverTail(f, refModel, refVersion, f.homeShard().stop)
	f.checkNoLostConfirms(1)
	f.checkMonotonicVersions()

	// The torn file must fail to load and be quarantined, not parsed.
	fs, err := serve.NewFileStore(f.storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.LoadVersion(f.patient); err == nil {
		t.Fatal("torn checkpoint loaded without error")
	}
	quarantined, err := filepath.Glob(filepath.Join(f.storeDir, "*.corrupt*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) == 0 {
		t.Fatal("torn checkpoint was not quarantined")
	}
	return sig
}

// chaosSlowReplica: the home dies while the replica's link is degraded
// (added latency, capped bandwidth). Slow must mean slow — late, but
// with every byte intact and every alarm bit-identical.
func chaosSlowReplica(t *testing.T) string {
	f := startChaosFleet(t, chaosConfig{
		patient: "chaos-slow",
		// Home death is detected by its socket dying (stop() below), not
		// by ping timeout, so the generous timeout costs no detection
		// latency — it only keeps the degraded replica link alive.
		pingTimeout: 500 * time.Millisecond,
		plan: func(home, replica string) *fault.Plan {
			return &fault.Plan{Seed: 803, Rules: []fault.Rule{
				{Peer: replica, Kind: fault.KindLatency, Start: 0, Duration: 120, LatencyMs: 15},
				{Peer: replica, Kind: fault.KindThrottle, Start: 0, Duration: 120, KBps: 512},
			}}
		},
	})
	defer f.close()
	refModel, refVersion := f.train(false)
	sig := chaosFailoverTail(f, refModel, refVersion, func() {
		f.inj.Arm()
		f.homeShard().stop()
	})
	f.checkNoLostConfirms(1)
	f.checkMonotonicVersions()
	return sig
}

// chaosFlappingLink: the home's link partitions and heals five times in
// quick succession — each flap tears the session down and reconnects.
// The server-side patient sessions must ride through every flap.
func chaosFlappingLink(t *testing.T) string {
	return chaosHealedRun(t, chaosConfig{
		patient: "chaos-flap",
		plan: func(home, replica string) *fault.Plan {
			return &fault.Plan{Seed: 804, Rules: []fault.Rule{
				{Peer: home, Kind: fault.KindPartition, Start: 0, Duration: 0.2, Repeat: 4, Period: 0.6, Jitter: 0.1},
			}}
		},
	})
}

// chaosResetStorm: every connection in the fleet — router links and
// replication pushes alike — is RST on sight, six windows in a row.
func chaosResetStorm(t *testing.T) string {
	return chaosHealedRun(t, chaosConfig{
		patient: "chaos-reset",
		plan: func(home, replica string) *fault.Plan {
			return &fault.Plan{Seed: 805, Rules: []fault.Rule{
				{Peer: "*", Kind: fault.KindReset, Start: 0, Duration: 0.1, Repeat: 5, Period: 0.4, Jitter: 0.05},
			}}
		},
	})
}

// chaosHalfOpenReap: the home's listener-side connections go half-open
// (host vanished: reads hang forever, writes black-hole, no FIN). The
// router's ping probe fails the patient over; the shard's per-frame
// read deadline must reap the dead connection — the goroutine guard
// would catch it pinned forever otherwise.
func chaosHalfOpenReap(t *testing.T) string {
	f := startChaosFleet(t, chaosConfig{
		patient:     "chaos-halfopen",
		listenFault: true,
		readIdle:    300 * time.Millisecond,
		plan: func(home, replica string) *fault.Plan {
			return &fault.Plan{Seed: 806, Rules: []fault.Rule{
				{Peer: "listen-home", Kind: fault.KindDropAfter, Start: 0, Duration: 120, AfterBytes: 0},
			}}
		},
	})
	defer f.close()
	refModel, refVersion := f.train(false)

	// Capture the router's server-side connection before the fault: this
	// is the one that goes half-open and must be reaped by the read
	// deadline, never by a FIN (none will come).
	home := f.homeShard()
	home.ss.mu.Lock()
	if n := len(home.ss.conns); n != 1 {
		home.ss.mu.Unlock()
		t.Fatalf("home has %d connections before the fault, want 1 (the router)", n)
	}
	var orig *clientConn
	for c := range home.ss.conns {
		orig = c
	}
	home.ss.mu.Unlock()

	sig := chaosFailoverTail(f, refModel, refVersion, f.inj.Arm)
	pollUntil(t, 10*time.Second, "half-open connection reaped by the read deadline", func() bool {
		home.ss.mu.Lock()
		_, alive := home.ss.conns[orig]
		home.ss.mu.Unlock()
		return !alive
	})
	f.checkNoLostConfirms(1)
	f.checkMonotonicVersions()
	return sig
}

// TestChaosMatrix runs every chaos scenario twice at its fixed plan
// seed and requires the two runs to produce byte-identical signatures
// (alarm stream times, model install sequences): deterministic fault
// injection means a chaos failure reproduces, not flakes.
func TestChaosMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"partition-during-replay", chaosPartitionDuringReplay},
		{"torn-checkpoint-then-failover", chaosTornCheckpoint},
		{"slow-replica", chaosSlowReplica},
		{"flapping-link", chaosFlappingLink},
		{"reset-storm", chaosResetStorm},
		{"half-open-reap", chaosHalfOpenReap},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			servetest.CheckGoroutines(t)
			first := sc.run(t)
			second := sc.run(t)
			if first != second {
				t.Fatalf("rerun diverged at a fixed seed:\n  run 1: %s\n  run 2: %s", first, second)
			}
		})
	}
}
