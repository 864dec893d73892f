package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"selflearn/internal/features"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/serve/servetest"
	"selflearn/internal/signal"
	"selflearn/internal/synth"
	"selflearn/internal/wire"
)

// testRate keeps feature extraction cheap: 4 s windows at 128 Hz are
// 512 samples, still divisible by 2^7 for the level-7 DWT.
const testRate = 128

func testServerConfig() serve.Config {
	return serve.Config{
		Workers:            2,
		SampleRate:         testRate,
		History:            4 * time.Minute,
		AvgSeizureDuration: 20 * time.Second,
	}
}

// testShard stands up one shardd-equivalent backend on loopback.
type testShard struct {
	srv *serve.Server
	ss  *ShardServer
}

func startShard(t *testing.T, addr string) *testShard {
	return startShardOpts(t, addr, Options{})
}

func startShardOpts(t *testing.T, addr string, opts Options) *testShard {
	t.Helper()
	srv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &testShard{srv: srv, ss: Serve(srv, ln, opts)}
}

func (ts *testShard) stop() {
	ts.ss.Close()
	ts.srv.Close()
}

func (ts *testShard) addr() string { return ts.ss.Addr().String() }

func testRecording(t testing.TB, seed int64, duration, seizureStart, seizureDur float64) *signal.Recording {
	t.Helper()
	cfg := synth.RecordConfig{
		PatientID:  fmt.Sprintf("synthetic-%d", seed),
		RecordID:   "r1",
		Seed:       seed,
		Duration:   duration,
		SampleRate: testRate,
		Background: synth.DefaultBackground(),
	}
	if seizureStart >= 0 {
		cfg.Seizures = []synth.SeizureEvent{{Start: seizureStart, Duration: seizureDur, Config: synth.DefaultSeizure()}}
	}
	rec, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// pushSamples streams raw channels through h in one-second batches,
// retrying transient refusals (backpressure locally; backpressure or
// shard outage in cluster mode).
func pushSamples(t testing.TB, h *serve.Stream, c0, c1 []float64) {
	t.Helper()
	for off := 0; off < len(c0); off += testRate {
		end := min(off+testRate, len(c0))
		for {
			err := h.Push(c0[off:end], c1[off:end])
			if err == nil {
				break
			}
			switch err {
			case serve.ErrBackpressure, ErrShardDown, ErrNoShards:
				time.Sleep(time.Millisecond)
			default:
				t.Fatalf("Push: %v", err)
			}
		}
	}
}

// push streams rec through h in one-second batches.
func push(t testing.TB, h *serve.Stream, rec *signal.Recording) {
	t.Helper()
	pushSamples(t, h, rec.Data[0], rec.Data[1])
}

func confirm(t testing.TB, h *serve.Stream) {
	t.Helper()
	for {
		err := h.Confirm()
		if err == nil {
			return
		}
		switch err {
		case serve.ErrBackpressure, ErrShardDown, ErrNoShards:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("Confirm: %v", err)
		}
	}
}

// backend is the surface serve.Server and Router share; the
// equivalence scenario drives both through it.
type backend interface {
	Open(patient string) (*serve.Stream, error)
	Events() <-chan serve.Event
	Snapshot() serve.Stats
}

// awaitSnapshot polls until cond holds; cluster counters are remote, so
// assertions poll instead of relying on local synchronization.
func awaitSnapshot(t testing.TB, b backend, what string, cond func(serve.Stats) bool) serve.Stats {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := b.Snapshot()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened: %+v", what, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scenarioInner runs the full self-learning loop for each patient —
// stream a seizure, confirm it, quiesce retraining, then stream a fresh
// seizure against the retrained detector — and returns per-patient
// alarm counts (from events), the final stats, and the event-collector
// completion channel (closed once the backend closes its event stream).
// Phases quiesce between pushes, so the outcome is deterministic for a
// given backend.
func scenarioInner(t *testing.T, b backend, patients []string) (map[string]int, serve.Stats, chan struct{}) {
	t.Helper()
	var alarmsMu sync.Mutex
	alarms := map[string]int{}
	eventsDone := make(chan struct{})
	events := b.Events()
	go func() {
		defer close(eventsDone)
		for ev := range events {
			if ev.Kind == serve.EventAlarm {
				alarmsMu.Lock()
				alarms[ev.Patient]++
				alarmsMu.Unlock()
			}
		}
	}()

	handles := map[string]*serve.Stream{}
	for i, p := range patients {
		h, err := b.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		handles[p] = h
		push(t, h, testRecording(t, int64(10+i), 150, 80, 22))
		confirm(t, h)
	}
	want := uint64(len(patients))
	awaitSnapshot(t, b, "retraining", func(st serve.Stats) bool {
		if st.RetrainErrors > 0 || st.ConfirmsDropped > 0 {
			t.Fatalf("retrain failed or confirm lost: %+v", st)
		}
		return st.Retrains >= want
	})
	for i, p := range patients {
		push(t, handles[p], testRecording(t, int64(100+i), 150, 90, 22))
	}
	// Per patient: 150−4+1 windows while the first stream fills the
	// window, then 150 more on the continued session.
	wantWindows := uint64(len(patients)) * uint64((150-4+1)+150)
	st := awaitSnapshot(t, b, "window drain", func(st serve.Stats) bool {
		return st.Windows >= wantWindows
	})
	if st.Windows != wantWindows {
		t.Fatalf("windows = %d, want %d", st.Windows, wantWindows)
	}
	// Wait for the alarm events to traverse the delivery path before
	// closing it, then compare against the counter.
	st = awaitSnapshot(t, b, "alarm delivery", func(serve.Stats) bool {
		alarmsMu.Lock()
		total := 0
		for _, n := range alarms {
			total += n
		}
		alarmsMu.Unlock()
		return uint64(total) >= st.Alarms
	})
	return alarms, st, eventsDone
}

// runScenario closes the backend once the scenario quiesces (ending the
// event stream) and waits for the collector before handing results back.
func runScenario(t *testing.T, b backend, patients []string, closeBackend func()) (map[string]int, serve.Stats) {
	alarms, st, done := scenarioInner(t, b, patients)
	closeBackend()
	<-done
	return alarms, st
}

// TestClusterMatchesSingleProcess is the PR's acceptance scenario: the
// same per-patient workload served by one in-process serve.Server and
// by two shardd processes behind a Router must produce bit-identical
// predictions — pinned here as identical per-patient alarm counts and
// identical window totals, with zero events lost in either mode.
// Determinism holds because a patient's batches arrive in order at
// exactly one stock serve.Server either way, and retrain seeds derive
// from the patient, not the topology.
func TestClusterMatchesSingleProcess(t *testing.T) {
	servetest.CheckGoroutines(t)
	shardA := startShard(t, "127.0.0.1:0")
	defer shardA.stop()
	shardB := startShard(t, "127.0.0.1:0")
	defer shardB.stop()
	r, err := Dial([]string{shardA.addr(), shardB.addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Pick two patients rendezvous-homed on each shard, so the cluster
	// run is guaranteed to exercise both processes (listener ports — and
	// with them the routing — vary per run).
	patients := make([]string, 0, 4)
	perShard := map[*shardConn]int{}
	for i := 0; len(patients) < 4 && i < 1000; i++ {
		p := fmt.Sprintf("chb%03d", i)
		sc, err := r.pick(p)
		if err != nil {
			t.Fatal(err)
		}
		if perShard[sc] < 2 {
			perShard[sc]++
			patients = append(patients, p)
		}
	}
	if len(patients) < 4 {
		t.Fatalf("could not spread 4 patients over 2 shards: %v", patients)
	}

	srv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	localAlarms, localStats := runScenario(t, srv, patients, srv.Close)
	if localStats.EventsDropped != 0 {
		t.Fatalf("local events dropped: %+v", localStats)
	}
	if localStats.Alarms == 0 {
		t.Fatal("local scenario raised no alarms; equivalence would be vacuous")
	}

	clusterAlarms, clusterStats := runScenario(t, r, patients, r.Close)
	if clusterStats.EventsDropped != 0 {
		t.Fatalf("cluster events dropped: %+v", clusterStats)
	}

	// Both shards must actually serve patients — otherwise this is a
	// single-process test wearing a TCP hat.
	if a, b := shardA.srv.Snapshot().Windows, shardB.srv.Snapshot().Windows; a == 0 || b == 0 {
		t.Fatalf("workload not spread across shards: windows %d / %d", a, b)
	}
	if clusterStats.Windows != localStats.Windows {
		t.Fatalf("windows: cluster %d vs local %d", clusterStats.Windows, localStats.Windows)
	}
	if clusterStats.Alarms != localStats.Alarms {
		t.Fatalf("alarms: cluster %d vs local %d", clusterStats.Alarms, localStats.Alarms)
	}
	for _, p := range patients {
		if clusterAlarms[p] != localAlarms[p] {
			t.Fatalf("patient %s alarms: cluster %d vs local %d (full: %v vs %v)",
				p, clusterAlarms[p], localAlarms[p], clusterAlarms, localAlarms)
		}
	}
}

// TestFailoverReroutesAndRecovers: killing a shard marks it unhealthy
// via the broken connection, live streams re-resolve to the surviving
// shard and keep serving, and restarting the shard on the same address
// routes its rendezvous patients home again.
func TestFailoverReroutesAndRecovers(t *testing.T) {
	shardA := startShard(t, "127.0.0.1:0")
	defer shardA.stop()
	shardB := startShard(t, "127.0.0.1:0")
	addrB := shardB.addr()

	r, err := Dial([]string{shardA.addr(), addrB}, Options{
		PingInterval:     25 * time.Millisecond,
		PingTimeout:      150 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Find a patient whose rendezvous home is shard B.
	connB := r.shards[1]
	patient := ""
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("patient-%03d", i)
		if sc, err := r.pick(p); err == nil && sc == connB {
			patient = p
			break
		}
	}
	if patient == "" {
		t.Fatal("no patient rendezvous-routed to shard B")
	}
	h, err := r.Open(patient)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecording(t, 77, 30, -1, 0)
	push(t, h, rec)
	awaitShardWindows := func(ts *testShard, want uint64, what string) {
		deadline := time.Now().Add(30 * time.Second)
		for ts.srv.Snapshot().Windows < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: windows = %d, want ≥ %d", what, ts.srv.Snapshot().Windows, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitShardWindows(shardB, 1, "pre-failover traffic to B")

	// Kill B. The severed connection fails fast; ping timeout is the
	// backstop for silent deaths.
	shardB.stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sc, err := r.pick(patient); err == nil && sc != connB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient never rerouted off the dead shard")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The same live handle now reaches the survivor.
	push(t, h, rec)
	awaitShardWindows(shardA, 1, "failover traffic to A")

	// Resurrect B on its old address: the router reconnects and the
	// patient routes home (their session there restarts cold — models
	// survive only via a shared store, which is a deployment choice).
	shardB2 := startShard(t, addrB)
	defer shardB2.stop()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if sc, err := r.pick(patient); err == nil && sc == connB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient never routed home after shard recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	push(t, h, rec)
	awaitShardWindows(shardB2, 1, "post-recovery traffic to B")
}

// replicatedPair stands up a two-shard fleet with checkpoint
// replication enabled on both shards and a fast-failover router over
// them, and picks a patient rendezvous-homed on the second shard.
func replicatedPair(t *testing.T) (shardA, shardB *testShard, addrB string, r *Router, patient string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	fleet := []string{addrA, addrB}
	shardOpts := func(self string) Options {
		return Options{Replication: &ReplicationConfig{Self: self, Fleet: fleet, Replicas: 1}}
	}
	newShard := func(ln net.Listener, self string) *testShard {
		srv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096))
		if err != nil {
			t.Fatal(err)
		}
		return &testShard{srv: srv, ss: Serve(srv, ln, shardOpts(self))}
	}
	shardA = newShard(lnA, addrA)
	shardB = newShard(lnB, addrB)

	r, err = Dial(fleet, Options{
		PingInterval:     25 * time.Millisecond,
		PingTimeout:      150 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	connB := r.shards[1]
	for i := 0; i < 1000 && patient == ""; i++ {
		p := fmt.Sprintf("patient-%03d", i)
		if sc, err := r.pick(p); err == nil && sc == connB {
			patient = p
		}
	}
	if patient == "" {
		t.Fatal("no patient rendezvous-routed to shard B")
	}
	return shardA, shardB, addrB, r, patient
}

// awaitModelVersion polls one shard's server until it serves the
// patient at least at version want.
func awaitModelVersion(t testing.TB, srv *serve.Server, patient string, want uint64, what string) uint64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, v := srv.ModelVersioned(patient); v >= want {
			return v
		}
		if time.Now().After(deadline) {
			_, v := srv.ModelVersioned(patient)
			t.Fatalf("%s: model version = %d, want ≥ %d", what, v, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverWarmResume is the PR's acceptance scenario: with two
// shardds and checkpoint replication on, killing the patient's shard
// mid-replay must hand the surviving shard a patient who resumes WARM —
// the post-failover alarms are bit-identical to an uninterrupted
// single-process run that starts from the same checkpoint, at an
// equal-or-newer model version. Without replication this is exactly the
// cold-start the self-learning methodology exists to avoid: the
// survivor would classify everything negative until enough seizures
// re-trigger retraining.
func TestFailoverWarmResume(t *testing.T) {
	servetest.CheckGoroutines(t)
	shardA, shardB, _, r, patient := replicatedPair(t)
	defer shardA.stop()
	defer shardB.stop()
	defer r.Close()

	h, err := r.Open(patient)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: train the patient's detector on their home shard (B).
	push(t, h, testRecording(t, 21, 150, 80, 22))
	confirm(t, h)
	deadline := time.Now().Add(60 * time.Second)
	for shardB.srv.Snapshot().Retrains < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("retrain never completed: %+v", shardB.srv.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Replication must place the checkpoint on the failover target (A)
	// before the failure — that is the whole point.
	versionA := awaitModelVersion(t, shardA.srv, patient, 1, "replication to shard A")
	awaitRouterVersion := func(want uint64) {
		deadline := time.Now().Add(30 * time.Second)
		for r.ModelVersions()[patient] < want {
			if time.Now().After(deadline) {
				t.Fatalf("router never learned model version %d: %v", want, r.ModelVersions())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	awaitRouterVersion(versionA)
	if shardA.srv.Snapshot().Retrains != 0 {
		t.Fatalf("shard A retrained; replica provenance would be ambiguous: %+v", shardA.srv.Snapshot())
	}

	// The reference model is shard A's replica itself (it crossed the
	// wire as JSON), so the uninterrupted reference run classifies with
	// exactly the representation the failed-over patient will get.
	refModel, refVersion := shardA.srv.ModelVersioned(patient)
	if refModel == nil {
		t.Fatal("no replica on shard A")
	}

	// Phase 2: replay a fresh recording; kill B mid-replay, before the
	// seizure. The tail is served by A from a fresh session — which must
	// match an uninterrupted run over the same tail from the same
	// checkpoint, batch for batch.
	rec := testRecording(t, 22, 150, 100, 22)
	const killAt = 60 // seconds into the replay
	c0, c1 := rec.Data[0], rec.Data[1]
	pushSamples(t, h, c0[:killAt*testRate], c1[:killAt*testRate])
	shardB.stop()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if sc, err := r.pick(patient); err == nil && sc != r.shards[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient never rerouted off the dead shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	pushSamples(t, h, c0[killAt*testRate:], c1[killAt*testRate:])

	// The tail spans 150−60 = 90 s: a fresh session completes its first
	// 4 s window after 4 s, then one per hop — 87 windows.
	wantWindows := uint64(150 - killAt - 4 + 1)
	deadline = time.Now().Add(60 * time.Second)
	for shardA.srv.Snapshot().Windows < wantWindows {
		if time.Now().After(deadline) {
			t.Fatalf("failover tail never drained on A: %+v", shardA.srv.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Uninterrupted reference: a fresh single-process server seeded with
	// the same checkpoint serves the identical tail.
	refSrv, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	if !refSrv.InstallModel(patient, refModel, refVersion) {
		t.Fatal("reference server refused the checkpoint")
	}
	refHandle, err := refSrv.Open(patient)
	if err != nil {
		t.Fatal(err)
	}
	pushSamples(t, refHandle, c0[killAt*testRate:], c1[killAt*testRate:])
	refSrv.Close()
	refStats := refSrv.Snapshot()

	aStats := shardA.srv.Snapshot()
	if refStats.Windows != wantWindows || aStats.Windows != wantWindows {
		t.Fatalf("windows: failover %d, reference %d, want %d", aStats.Windows, refStats.Windows, wantWindows)
	}
	if refStats.Alarms == 0 {
		t.Fatal("reference run raised no alarms; warm-resume equivalence would be vacuous")
	}
	if aStats.Alarms != refStats.Alarms {
		t.Fatalf("post-failover alarms = %d, uninterrupted reference = %d — failover was not warm",
			aStats.Alarms, refStats.Alarms)
	}
	// Warmth must come from replication, not from a retrain on A, and
	// the patient must resume at an equal-or-newer model version.
	if aStats.Retrains != 0 || aStats.Confirms != 0 {
		t.Fatalf("shard A trained (%d retrains, %d confirms); warmth is not replication's", aStats.Retrains, aStats.Confirms)
	}
	if _, v := shardA.srv.ModelVersioned(patient); v < refVersion {
		t.Fatalf("post-failover model version %d < pre-failover %d", v, refVersion)
	}
}

// TestRecoveryTransfersModelHome pins the router-mediated ModelGet
// fallback of the warm-transfer path: a shard that comes back empty
// (fresh process, no store) is handed the freshest surviving checkpoint
// when a patient routes home to it — pulled from whichever healthy
// shard still holds it, since the reborn home shard's replica died with
// the old process.
func TestRecoveryTransfersModelHome(t *testing.T) {
	shardA, shardB, addrB, r, patient := replicatedPair(t)
	defer shardA.stop()
	defer r.Close()

	h, err := r.Open(patient)
	if err != nil {
		t.Fatal(err)
	}
	// Train v1 on the home shard (B); replication copies it to A.
	push(t, h, testRecording(t, 31, 150, 80, 22))
	confirm(t, h)
	awaitModelVersion(t, shardB.srv, patient, 1, "home training")
	awaitModelVersion(t, shardA.srv, patient, 1, "replication to A")

	// Kill B; the patient fails over to A and retrains there, advancing
	// the model to v2 — a version the reborn B has never seen.
	shardB.stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sc, err := r.pick(patient); err == nil && sc == r.shards[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient never rerouted off the dead shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	push(t, h, testRecording(t, 32, 150, 80, 22))
	confirm(t, h)
	v2 := awaitModelVersion(t, shardA.srv, patient, 2, "failover retrain on A")

	// Resurrect B empty on its old address. The patient routes home, and
	// the router must carry the freshest checkpoint (A's v2) with them:
	// B's own replica is gone, so this exercises the ModelGet sweep, not
	// the replica-first path.
	lnB, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	srvB2, err := serve.New(testServerConfig(), serve.WithEventBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	shardB2 := &testShard{srv: srvB2, ss: Serve(srvB2, lnB, Options{})}
	defer shardB2.stop()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if sc, err := r.pick(patient); err == nil && sc == r.shards[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("patient never routed home after shard recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := testRecording(t, 33, 30, -1, 0)
	push(t, h, rec)
	if v := awaitModelVersion(t, shardB2.srv, patient, v2, "transfer home"); v < v2 {
		t.Fatalf("reborn shard serves version %d, want ≥ %d", v, v2)
	}
	if st := shardB2.srv.Snapshot(); st.Retrains != 0 {
		t.Fatalf("reborn shard retrained (%d); the version must have come over the wire", st.Retrains)
	}
}

// TestRequestRejectsWrongKindReply: stats and model replies share one
// token table, so a reply of the wrong kind on a request's token must
// fail the request, as a timeout does, rather than pass for the reply
// it waited for.
func TestRequestRejectsWrongKindReply(t *testing.T) {
	r := &Router{opts: Options{}.withDefaults()}
	sc := newShardConn(r, "test:0")
	client, shard := net.Pipe()
	defer shard.Close()
	sc.conn, sc.enc = client, wire.NewEncoder(client)
	done := make(chan struct{})
	go sc.readLoop(wire.NewDecoder(client), done)
	go func() {
		// The shard answers the stats request with a model frame.
		req, err := wire.NewDecoder(shard).Next()
		if err != nil {
			return
		}
		enc := wire.NewEncoder(shard)
		if enc.ModelPut(req.Token, "p", 1, nil) == nil {
			enc.Flush()
		}
	}()
	_, err := sc.stats(10 * time.Second)
	if err == nil || !strings.Contains(err.Error(), wire.KindModelPut.String()) {
		t.Fatalf("stats request answered by a model-put frame: err = %v", err)
	}
	client.Close()
	<-done
}

// TestRendezvousStability pins the routing properties failover depends
// on: deterministic assignment, movement limited to the failed shard's
// patients, and exact restoration on recovery.
func TestRendezvousStability(t *testing.T) {
	r := &Router{opts: Options{}.withDefaults()}
	for _, addr := range []string{"10.0.0.1:7461", "10.0.0.2:7461", "10.0.0.3:7461"} {
		sc := newShardConn(r, addr)
		sc.healthy.Store(true)
		r.shards = append(r.shards, sc)
	}
	const n = 300
	home := make(map[string]*shardConn, n)
	perShard := map[*shardConn]int{}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("patient-%04d", i)
		sc, err := r.pick(p)
		if err != nil {
			t.Fatal(err)
		}
		home[p] = sc
		perShard[sc]++
	}
	for _, sc := range r.shards {
		if perShard[sc] < n/6 {
			t.Fatalf("rendezvous is lopsided: %s owns %d of %d patients", sc.addr, perShard[sc], n)
		}
	}
	// Fail one shard: only its patients move, and all of them do.
	down := r.shards[1]
	down.healthy.Store(false)
	for p, h := range home {
		sc, err := r.pick(p)
		if err != nil {
			t.Fatal(err)
		}
		if h == down && sc == down {
			t.Fatalf("patient %s still routed to the down shard", p)
		}
		if h != down && sc != h {
			t.Fatalf("patient %s moved from %s to %s though their shard is healthy", p, h.addr, sc.addr)
		}
	}
	// Recovery restores the original assignment exactly.
	down.healthy.Store(true)
	for p, h := range home {
		if sc, _ := r.pick(p); sc != h {
			t.Fatalf("patient %s not routed home after recovery", p)
		}
	}
}

// TestClusterAdmissionSuite runs the shared transport admission suite
// against a cluster shard connection: the same drop/block/shed
// semantics the local worker queue proves, now on the client side of
// the wire. The connection is held pre-dial (healthy flag forced) so
// the suite owns the drain side.
func TestClusterAdmissionSuite(t *testing.T) {
	servetest.RunAdmissionSuite(t, func(t *testing.T, depth int) servetest.Harness {
		r := &Router{opts: Options{QueueDepth: depth}.withDefaults()}
		r.events = make(chan serve.Event, r.opts.EventBuffer)
		sc := newShardConn(r, "test:0")
		sc.healthy.Store(true)
		return servetest.Harness{
			Shard: sc,
			Drain: sc.queue.TryRecv,
		}
	})
}

// TestShardServerSurvivesClientChurn pins the disconnect race: client
// connections coming and going while the shard emits events must never
// crash the shard process. The original bug closed a connection's
// fanout channel before deregistering it, so a concurrent fanout send
// panicked shardd; connections now leave the fanout set first.
func TestShardServerSurvivesClientChurn(t *testing.T) {
	servetest.CheckGoroutines(t)
	ts := startShard(t, "127.0.0.1:0")
	defer ts.stop()

	// A resident client hammers Confirm so the shard broadcasts a steady
	// stream of retrain events into the fanout while churn runs.
	r, err := Dial([]string{ts.addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	h, err := r.Open("resident")
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecording(t, 55, 60, 20, 15)
	push(t, h, rec)
	stopEmit := make(chan struct{})
	emitDone := make(chan struct{})
	go func() {
		defer close(emitDone)
		for {
			select {
			case <-stopEmit:
				return
			default:
				confirm(t, h) // each confirm → a retrain event broadcast
				// Throttle: unpaced confirms pile up in TCP buffers far
				// beyond the bounded queues (tiny frames, megabyte
				// windows) and the liveness check below would then wait
				// behind a minutes-long confirm backlog.
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Churn: connections that register with the fanout and vanish mid
	// event stream. Half die raw before the handshake, half right after
	// it — both shapes must deregister before their channel closes.
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", ts.addr())
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			enc := wire.NewEncoder(conn)
			if err := enc.Hello(); err == nil {
				enc.Flush()
			}
		}
		time.Sleep(200 * time.Microsecond)
		conn.Close()
	}
	close(stopEmit)
	<-emitDone
	// The shard must still be alive and serving: a fresh push succeeds
	// and shows up in its stats.
	before := ts.srv.Snapshot().Windows
	push(t, h, rec)
	deadline := time.Now().Add(30 * time.Second)
	for ts.srv.Snapshot().Windows <= before {
		if time.Now().After(deadline) {
			t.Fatalf("shard stopped serving after client churn: %+v", ts.srv.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardSurvivesMalformedModelPut: a ModelPut is decoded on the
// connection's goroutine, so a checkpoint that panicked the decoder
// killed the whole shard. Each one here — a null tree, trees of two
// widths, a tree whose splits share one child — and a well-formed model
// of the wrong width must be dropped, with the shard still answering
// on the same connection.
func TestShardSurvivesMalformedModelPut(t *testing.T) {
	ts := startShard(t, "127.0.0.1:0")
	defer ts.stop()
	stump := func(width, feature int) string {
		return fmt.Sprintf(`{"num_features":%d,"nodes":[{"leaf":false,"feature":%d,"threshold":0.5,"left":1,"right":2},{"leaf":true},{"leaf":true,"prob":1}]}`, width, feature)
	}
	var shared strings.Builder
	shared.WriteString(`{"trees":[{"num_features":1,"nodes":[`)
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&shared, `{"leaf":false,"feature":0,"threshold":0.5,"left":%d,"right":%d},`, i, i)
	}
	shared.WriteString(`{"leaf":true,"prob":1}]}],"oob_error":0}`)
	width := len(features.PaperFeatureNames())
	checkpoints := map[string]string{
		"null-tree":       `{"trees":[null],"oob_error":0}`,
		"mixed-widths":    `{"trees":[` + stump(2, 1) + `,` + stump(20, 15) + `],"oob_error":0}`,
		"shared-children": shared.String(),
		"too-wide":        `{"trees":[` + stump(width+1, width) + `],"oob_error":0}`,
	}

	conn, err := net.Dial("tcp", ts.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	enc, dec := wire.NewEncoder(conn), wire.NewDecoder(conn)
	if err := enc.Hello(); err != nil {
		t.Fatal(err)
	}
	for patient, data := range checkpoints {
		if err := enc.ModelPut(0, patient, 1, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.StatsReq(7); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := dec.Next()
		if err != nil {
			t.Fatalf("shard hung up after the ModelPuts: %v", err)
		}
		if m.Kind == wire.KindStats && m.Token == 7 {
			break
		}
	}
	for patient := range checkpoints {
		if f, v := ts.srv.ModelVersioned(patient); f != nil {
			t.Errorf("%s: the shard installed the checkpoint as v%d", patient, v)
		}
	}
}

// TestRouterValidation covers Dial's address hygiene and the router
// half of serve's TestOpenAndPushValidation: the empty-patient guard,
// channel validation, every verb of a closed handle, and handle
// accounting across a double Close.
func TestRouterValidation(t *testing.T) {
	if _, err := Dial(nil, Options{}); err == nil {
		t.Fatal("Dial accepted an empty address list")
	}
	if _, err := Dial([]string{"a:1", "a:1"}, Options{}); err == nil {
		t.Fatal("Dial accepted duplicate addresses")
	}
	r, err := Dial([]string{"127.0.0.1:1"}, Options{ReconnectBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Open(""); err == nil {
		t.Fatal("Open accepted an empty patient ID")
	}
	// With no shard reachable, pushes surface the outage rather than
	// silently buffering forever.
	h, err := r.Open("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Push([]float64{0}, []float64{0}); err != ErrNoShards {
		t.Fatalf("Push with all shards down = %v, want ErrNoShards", err)
	}
	if err := h.Push([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched channel lengths accepted")
	}

	h.Close()
	h.Close() // idempotent
	decl := serve.PrefilterConfig{Gate: rt.GateConfig{Factor: 2.5, HistoryWindows: 32}}
	for name, verb := range map[string]func() error{
		"Push":             func() error { return h.Push([]float64{0}, []float64{0}) },
		"Confirm":          h.Confirm,
		"DeclarePrefilter": func() error { return h.DeclarePrefilter(decl) },
		"PushDigest":       func() error { return h.PushDigest(serve.Digest{Windows: 1}) },
		"PushAudit":        func() error { return h.PushAudit([]float64{0}, []float64{0}) },
	} {
		if err := verb(); err != serve.ErrStreamClosed {
			t.Errorf("%s on closed stream = %v, want ErrStreamClosed", name, err)
		}
	}
	if st := r.Snapshot(); st.StreamsOpen != 0 {
		t.Fatalf("StreamsOpen = %d after double Close, want 0", st.StreamsOpen)
	}
}

// TestCloseRacesPush pins the close handshake both transports share:
// pushes racing the backend's Close each get nil, ErrBackpressure or
// ErrClosed — never a send on a closed queue — and Open after Close is
// refused. Run it with -race -count=10.
func TestCloseRacesPush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (backend, func())
	}{
		{"local", func(t *testing.T) (backend, func()) {
			srv, err := serve.New(testServerConfig())
			if err != nil {
				t.Fatal(err)
			}
			return srv, srv.Close
		}},
		{"router", func(t *testing.T) (backend, func()) {
			shard := startShard(t, "127.0.0.1:0")
			t.Cleanup(shard.stop)
			r, err := Dial([]string{shard.addr()}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			if err := r.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			return r, r.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			servetest.CheckGoroutines(t)
			b, closeBackend := tc.start(t)
			rec := testRecording(t, 3, 8, -1, 0)
			const pushers = 8
			var wg sync.WaitGroup
			for i := 0; i < pushers; i++ {
				h, err := b.Open(fmt.Sprintf("race-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; ; n++ {
						off := n % 8 * testRate
						switch err := h.Push(rec.Data[0][off:off+testRate], rec.Data[1][off:off+testRate]); err {
						case nil, serve.ErrBackpressure:
						case serve.ErrClosed:
							return
						default:
							t.Errorf("Push racing Close = %v", err)
							return
						}
					}
				}()
			}
			time.Sleep(20 * time.Millisecond)
			closeBackend()
			wg.Wait()
			if _, err := b.Open("late"); err != serve.ErrClosed {
				t.Fatalf("Open after Close = %v, want ErrClosed", err)
			}
		})
	}
}
