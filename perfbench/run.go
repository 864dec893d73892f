package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w      workload
	seed   int64
	ticks  int
	shardd string
	dir    string // this run's scratch files, removed at exit
	traces string // where a traced run leaves its span and layer files
}

// runState is one brought-up system and everything the generator
// records about driving it. newRunState allocates every slice the timed
// phase writes, before set-up starts.
type runState struct {
	rc    *runConfig
	in    *inputs
	ticks int
	clk   clock
	log   *eventLog
	tr    *tracer // nil untraced
	sys   *system
	store *serve.FileStore // the checkpoints the system loads and writes

	tracing bool // spans on: the traced run's timed phase

	next           []int // per patient: next stream second to push
	clients        []*serve.PrefilterClient
	ship           [][]int32 // per patient: stream seconds the edge gate shipped
	sentSuppressed uint64    // windows covered by the digests sent
	sentAudits     uint64
	confirmSec     []int // per patient: the second its confirm followed, -1 = none
	confirmDue     []int64
	waiting        []bool // confirmed, retrain outcome not yet received
	dueAt          []int64
	late           []int64

	pushWait []int64   // traced: duration of each timed Push, Confirm, digest or audit
	backlog  []float64 // traced in-process: queued jobs after each tick

	handled  int       // seconds handed to the system so far
	marks    []mark    // the timed phase's segment boundaries
	prober   *prober   // the host-speed probe, run once per tick
	probeUS  []float64 // per tick: the probe's mean time over the CPUs
	probeBuf []float64
	probeCPU int64    // ns the probe has cost
	stealAt  []uint64 // machine-wide steal in clock ticks: at the start, then after each tick's probe

	attempted uint64
	failures  map[string]uint64

	cpu    time.Duration // every system process, timed phase, less the probe
	steal  float64       // share of the VM's CPU time the host took, timed phase
	mem    uint64        // peak RSS of the processes hosting a serve.Server, timed phase
	uplink uint64        // bytes toward the serving tier, timed phase
	final  serve.Stats
}

func newRunState(rc *runConfig, in *inputs, n int, traced bool) (*runState, error) {
	w := in.w
	np := len(in.ids)
	total := w.prime + rc.ticks
	r := &runState{
		rc:         rc,
		in:         in,
		ticks:      rc.ticks,
		clk:        clock{base: time.Now()},
		next:       make([]int, np),
		confirmSec: make([]int, np),
		confirmDue: make([]int64, np),
		waiting:    make([]bool, np),
		dueAt:      make([]int64, rc.ticks),
		late:       make([]int64, rc.ticks),
		marks:      make([]mark, 0, rc.ticks/segTicks+2),
		prober:     newProber(),
		probeUS:    make([]float64, rc.ticks),
		probeBuf:   make([]float64, 0, 64),
		stealAt:    make([]uint64, rc.ticks+1),
		failures:   map[string]uint64{},
	}
	for p := range r.confirmSec {
		r.confirmSec[p] = -1
	}
	if w.edge {
		r.clients = make([]*serve.PrefilterClient, np)
		r.ship = make([][]int32, np)
		for p := range r.clients {
			c, err := serve.NewPrefilterClient(prefilterConfig())
			if err != nil {
				return nil, err
			}
			r.clients[p], r.ship[p] = c, make([]int32, 0, total)
		}
	}
	dir := in.ckptDir
	if w.learn {
		dir = filepath.Join(rc.dir, fmt.Sprintf("store-%d", n))
	}
	var err error
	if r.store, err = serve.NewFileStore(dir); err != nil {
		return nil, err
	}
	// Alarms fire at most once per window, and only sentinels (a quarter
	// of the patients at most) alarm often.
	r.log = newEventLog(r.clk, in, np*completed(total)/3+8192)
	if traced {
		replayed := total
		if w.learn {
			replayed = rc.ticks + windowSeconds
		}
		r.tr = newTracer(np*(2*rc.ticks+10*replayed+8) + rc.ticks + 8192)
		r.pushWait = make([]int64, 0, 2*np*rc.ticks+np)
		r.backlog = make([]float64, 0, rc.ticks)
	}
	return r, nil
}

// setUp brings the system up and streams every patient's first prime
// seconds. It returns the seconds from the start of bring-up until every
// window those seconds complete is classified, raw and scaled to the
// reference host by probes run just before and just after it.
func (r *runState) setUp() (raw, scaled float64, err error) {
	r.probeBuf = r.probeBuf[:0]
	for i := 0; i < setupProbes; i++ {
		r.probeBuf, _ = r.prober.probe(r.probeBuf)
	}
	start := time.Now()
	sys, err := bringUp(r)
	if err != nil {
		return 0, 0, err
	}
	r.sys = sys
	for s := 0; s < r.in.w.prime; s++ {
		for p := range r.next {
			r.pushSecond(p, s)
		}
	}
	for p := range r.next {
		r.next[p] = r.in.w.prime
	}
	if err := r.waitProcessed(); err != nil {
		r.sys.close()
		return 0, 0, err
	}
	raw = time.Since(start).Seconds()
	for i := 0; i < setupProbes; i++ {
		r.probeBuf, _ = r.prober.probe(r.probeBuf)
	}
	var sum float64
	for _, us := range r.probeBuf {
		sum += us
	}
	return raw, raw * speed(sum/float64(len(r.probeBuf))), nil
}

// waitProcessed blocks until the system has classified every window the
// pushed seconds complete, counted every digest and audit sample sent,
// and delivered every alarm it raised. The program emits no per-window
// event, so this samples its exact counters every pollEvery: often
// enough to resolve set-up to 0.2 %, seldom enough that a fleet's
// Snapshot, a Stats round trip to each shard, costs the shards little.
func (r *runState) waitProcessed() error {
	var windows uint64
	for p, n := range r.next {
		if r.ship != nil {
			n = len(r.ship[p])
		}
		windows += uint64(completed(n))
	}
	deadline := time.Now().Add(waitLimit)
	for {
		st := r.sys.snapshot()
		if st.Windows >= windows && st.WindowsSuppressed >= r.sentSuppressed &&
			st.AuditSamples >= r.sentAudits && r.log.alarms.Load() >= st.Alarms {
			r.final = st
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("after %v the system had classified %d of %d windows", waitLimit, st.Windows, windows)
		}
		time.Sleep(pollEvery)
	}
}

// measure runs the timed phase — ticks of pushes on a fixed schedule,
// then the drain until every result is back — and stops the system.
func (r *runState) measure() error {
	pids := r.sys.pids()
	up0 := r.sys.uplink()
	err := r.sys.resetPeakRSS()
	cpu0, cerr := cpuOf(pids)
	steal0, total0, serr := stealTicks()
	if err = errors.Join(err, cerr, serr); err != nil {
		r.sys.close()
		return err
	}
	r.stealAt[0] = steal0
	r.tracing = r.tr != nil
	lead := r.clk.now() + int64(tick)
	for t := 0; t < r.ticks && err == nil; t++ {
		due := lead + int64(t)*int64(tick)
		r.sleepUntil(due)
		r.dueAt[t] = due
		r.late[t] = r.clk.now() - due
		if t%segTicks == 0 {
			err = r.mark(pids)
		}
		r.tick(t)
		// The rest of the tick is idle once the system has answered.
		r.sleepUntil(due + int64(probeAt))
		r.probeTick(t)
		if err == nil {
			err = r.sample(t)
		}
	}
	if err == nil {
		err = r.finish()
	}
	if err == nil {
		err = r.waitProcessed()
	}
	if err == nil {
		err = r.mark(pids)
	}
	r.tracing = false
	cpu1, cerr := cpuOf(pids)
	r.cpu = cpu1 - cpu0 - time.Duration(r.probeCPU)
	if err == nil {
		err = cerr
	}
	steal1, total1, serr := stealTicks()
	r.steal = share(int64(steal1-steal0), int64(total1-total0))
	if err == nil {
		err = serr
	}
	mem, merr := r.sys.peakRSS()
	r.mem = mem
	if err == nil {
		err = merr
	}
	r.uplink = r.sys.uplink() - up0
	if cerr := r.sys.close(); err == nil {
		err = cerr
	}
	if r.sys.srv != nil {
		r.final = r.sys.srv.Snapshot()
		r.uplink = r.pricedUplink()
	}
	return err
}

func (r *runState) sleepUntil(at int64) {
	if d := at - r.clk.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// tick pushes every patient's next second. On self-learning, patient t
// then confirms its seizure; its later seconds wait until the retrain
// has published, so the model switch lands on a known window.
func (r *runState) tick(t int) {
	s := r.in.w.prime + t
	for p := range r.next {
		if r.waiting[p] {
			if !r.log.settled(p) {
				continue
			}
			r.waiting[p] = false
		}
		for ; r.next[p] <= s; r.next[p]++ {
			r.pushSecond(p, r.next[p])
		}
	}
	if r.in.w.learn && t < len(r.next) {
		t0 := r.now()
		r.note(spConfirm, t, s, t0, r.sys.streams[t].Confirm())
		r.confirmSec[t], r.confirmDue[t], r.waiting[t] = s, r.dueAt[t], true
	}
	if r.tracing && r.sys.srv != nil {
		t0 := r.clk.now()
		q := r.sys.srv.Snapshot().QueueDepth
		r.tr.add(spSnapshot, int64(t), -1, t0, r.clk.now())
		r.backlog = append(r.backlog, float64(q))
	}
}

// pushSecond sends patient p's stream second s — through the patient's
// edge gate when the workload has one.
func (r *runState) pushSecond(p, s int) {
	c0, c1 := r.in.second(p, s)
	st := r.sys.streams[p]
	r.handled++
	if r.clients == nil {
		t0 := r.now()
		r.note(spPush, p, s, t0, st.Push(c0, c1))
		return
	}
	act := r.clients[p].Decide(c0, c1)
	if act.Flush.Windows > 0 {
		t0 := r.now()
		r.note(spPush, p, s, t0, st.PushDigest(act.Flush))
		r.sentSuppressed += uint64(act.Flush.Windows)
	}
	switch {
	case act.Ship:
		r.ship[p] = append(r.ship[p], int32(s))
		t0 := r.now()
		r.note(spPush, p, s, t0, st.Push(c0, c1))
	case act.Audit:
		t0 := r.now()
		r.note(spPush, p, s, t0, st.PushAudit(c0, c1))
		r.sentAudits++
	}
}

// finish sends what the last tick leaves pending: the edge gates' final
// digests, and the seconds held back from patients whose retrain had not
// published by then.
func (r *runState) finish() error {
	last := r.in.w.prime + r.ticks - 1
	for p, c := range r.clients {
		if d := c.Final(); d.Windows > 0 {
			t0 := r.now()
			r.note(spPush, p, last, t0, r.sys.streams[p].PushDigest(d))
			r.sentSuppressed += uint64(d.Windows)
		}
	}
	deadline := time.Now().Add(waitLimit)
	for p := range r.waiting {
		for r.waiting[p] && !r.log.settled(p) {
			if time.Now().After(deadline) {
				return fmt.Errorf("no retrain outcome for %s", r.in.ids[p])
			}
			time.Sleep(pollEvery)
		}
		r.waiting[p] = false
		for ; r.next[p] <= last; r.next[p]++ {
			r.pushSecond(p, r.next[p])
		}
	}
	return nil
}

// now reads the clock only while spans are on.
func (r *runState) now() int64 {
	if !r.tracing {
		return 0
	}
	return r.clk.now()
}

// note counts one operation the generator attempted and, while tracing,
// records the time the call blocked.
func (r *runState) note(name uint8, p, s int, t0 int64, err error) {
	r.attempted++
	if err != nil {
		r.fail("push or confirm error")
	}
	if r.tracing {
		end := r.clk.now()
		r.tr.add(name, spanID(p, s), -1, t0, end)
		r.pushWait = append(r.pushWait, end-t0)
	}
}

func (r *runState) fail(kind string) { r.failures[kind]++ }

func (r *runState) failed() uint64 {
	var n uint64
	for _, c := range r.failures {
		n += c
	}
	return n
}

func (r *runState) patientSeconds() float64 { return float64(len(r.in.ids) * r.ticks) }

// latencies returns the timed phase's delivery latencies in ms, sorted.
func (r *runState) latencies() []float64 {
	var out []float64
	r.eachLatency(func(_ int, ms float64) { out = append(out, ms) })
	sort.Float64s(out)
	return out
}

// eachLatency calls f with each delivery latency of the timed phase, in
// ms, and the tick its input was due at: on self-learning the model
// update answering each Confirm, elsewhere each alarm.
func (r *runState) eachLatency(f func(t int, ms float64)) {
	if r.in.w.learn {
		for p, s := range r.confirmSec {
			if at := r.log.modelAt[p].Load(); s >= 0 && at > 0 {
				f(s-r.in.w.prime, ms(at-r.confirmDue[p]))
			}
		}
		return
	}
	for _, e := range r.log.events() {
		if e.kind != serve.EventAlarm {
			continue
		}
		var ship []int32
		if r.ship != nil {
			ship = r.ship[e.patient]
		}
		if t, ok := dueTick(e.stream, r.in.w.prime, ship); ok && t < r.ticks {
			f(t, ms(e.at-r.dueAt[t]))
		}
	}
}

// pricedUplink is what the timed phase's pushes and confirms occupy as
// wire frames, for the in-process workloads that have no wire: the
// encoder a cluster.Router frames them with, writing nowhere.
func (r *runState) pricedUplink() uint64 {
	enc := wire.NewEncoder(io.Discard)
	for p, id := range r.in.ids {
		for s := r.in.w.prime; s < r.in.w.prime+r.ticks; s++ {
			c0, c1 := r.in.second(p, s)
			_ = enc.Push(id, c0, c1) // io.Discard cannot fail
		}
		if r.confirmSec[p] >= 0 {
			_ = enc.Confirm(id)
		}
	}
	return enc.BytesWritten()
}

func spanID(p, s int) int64 { return int64(p)<<32 | int64(s) }
