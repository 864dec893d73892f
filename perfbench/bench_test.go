package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"

	"selflearn/internal/wire"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 0.99, 10}, // p99 is reportable from 1000 samples on
		{999, 0.99, 9},
		{100, 0.9, 10}, // p90 from 100
		{99, 0.9, 9},
		{1, 0.5, 0},
		{0, 0.99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of no samples = %g, want 0", q)
	}
}

func TestAlarmMapsToTheTickThatCompletedItsWindow(t *testing.T) {
	// Window k spans seconds k..k+3, so second k+3 completes it.
	for k := 0; k < 8; k++ {
		if got := completingSecond(float64(k)); got != k+3 {
			t.Errorf("window %d completes on second %d, want %d", k, got, k+3)
		}
	}
	// With 4 primed seconds, window 1 completes on second 4: tick 0.
	if tick, ok := dueTick(1, 4, nil); !ok || tick != 0 {
		t.Errorf("dueTick(1, 4) = %d, %v; want 0, true", tick, ok)
	}
	// Window 0 completed during set-up.
	if _, ok := dueTick(0, 4, nil); ok {
		t.Error("an alarm completed during set-up mapped to a timed tick")
	}
	// Behind an edge gate the session ingests only shipped seconds: its
	// window 1 completes on its 5th ingested second, stream second 9.
	ship := []int32{0, 1, 2, 5, 9, 10}
	if tick, ok := dueTick(1, 4, ship); !ok || tick != 5 {
		t.Errorf("gated dueTick(1, 4) = %d, %v; want 5, true", tick, ok)
	}
	if _, ok := dueTick(3, 4, ship); ok {
		t.Error("an alarm past the shipped seconds mapped to a tick")
	}
}

func TestStatCPUSkipsCommandNames(t *testing.T) {
	line := "4242 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 1 0 99 0 0"
	got, err := statCPU(line)
	if err != nil || got != 1000 {
		t.Fatalf("statCPU = %d, %v; want 1000 ticks", got, err)
	}
	if _, err := statCPU("4242 (trunc) R 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
}

// TestHelperBurn is the child process of TestCPUSumsAcrossProcesses.
func TestHelperBurn(t *testing.T) {
	if os.Getenv("PERFBENCH_BURN") != "1" {
		t.Skip("child process of TestCPUSumsAcrossProcesses")
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*1.0000001 + 1e-9
	}
	os.Stdout.WriteString("burnt\n")
	io.Copy(io.Discard, os.Stdin) // hold until the parent has read our CPU
	if x < 0 {
		t.Log(x)
	}
}

func TestCPUSumsAcrossProcesses(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperBurn$")
	cmd.Env = append(os.Environ(), "PERFBENCH_BURN=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	if _, err := bufio.NewReader(stdout).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	child, err := cpuOf([]int{cmd.Process.Pid})
	if err != nil {
		t.Fatal(err)
	}
	self, err := cpuOf([]int{os.Getpid()})
	if err != nil {
		t.Fatal(err)
	}
	both, err := cpuOf([]int{os.Getpid(), cmd.Process.Pid})
	if err != nil {
		t.Fatal(err)
	}
	if child < 200*time.Millisecond {
		t.Errorf("child burnt 300 ms of CPU but /proc shows %v", child)
	}
	if both < self+child {
		t.Errorf("self %v + child %v summed to %v", self, child, both)
	}
}

func TestInputsTakePushQOnEveryBatch(t *testing.T) {
	for _, name := range []string{"ward-local", "self-learning"} {
		in, err := buildInputs(workloads[name], 7)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc, dec := wire.NewEncoder(&buf), wire.NewDecoder(&buf)
		for r := range in.recs {
			for s := 0; s < in.secs; s++ {
				c0 := in.recs[r][0][s*in.fs : (s+1)*in.fs]
				c1 := in.recs[r][1][s*in.fs : (s+1)*in.fs]
				if err := enc.Push("p0000", c0, c1); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
				msg, err := dec.Next()
				if err != nil {
					t.Fatal(err)
				}
				if msg.Kind != wire.KindPushQ {
					t.Fatalf("%s: recording %d second %d went out as %v", name, r, s, msg.Kind)
				}
				if !slices.Equal(msg.C0, c0) || !slices.Equal(msg.C1, c1) {
					t.Fatalf("%s: recording %d second %d did not round-trip", name, r, s)
				}
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloads["edge-fleet"]
	a, err := buildInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.rec, b.rec) || !slices.Equal(a.offset, b.offset) {
		t.Fatal("patients differ between two builds from one seed")
	}
	for r := range a.recs {
		for c := 0; c < 2; c++ {
			if !slices.Equal(a.recs[r][c], b.recs[r][c]) {
				t.Fatalf("recording %d channel %d differs between two builds from one seed", r, c)
			}
		}
	}
}

func TestSegmentsScaleCPUToTheReferenceHost(t *testing.T) {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	r := &runState{ticks: 3 * segTicks, late: make([]int64, 3*segTicks), probeUS: make([]float64, 3*segTicks)}
	// Three segments of 1000 patient-seconds each. The probe took twice
	// probeRef in the first, probeRef in the second; the third started a
	// tick late.
	for t := range r.probeUS {
		r.probeUS[t] = probeRef
		if t < segTicks {
			r.probeUS[t] = 2 * probeRef
		}
	}
	r.late[2*segTicks+3] = int64(lateLimit) + 1
	r.marks = []mark{
		{cpu: 0, probeCPU: 0, handled: 0},
		{cpu: ms(205), probeCPU: int64(ms(5)), handled: 1000},   // 200 ms of system CPU
		{cpu: ms(310), probeCPU: int64(ms(10)), handled: 2000},  // 100 ms
		{cpu: ms(1010), probeCPU: int64(ms(10)), handled: 3000}, // 700 ms, late
	}
	segs := r.segments()
	if len(segs) != 3 || segs[0].cpu != 200 || segs[1].cpu != 100 {
		t.Fatalf("segments = %+v; want 200 and 100 µs per patient-second, the probe's CPU taken out", segs)
	}
	ok := valid(segs)
	if len(ok) != 2 || !segs[2].late {
		t.Fatalf("valid kept %d segments; want the late third left out", len(ok))
	}
	// At half speed 200 µs is 100 µs on the reference host.
	if got := scaledCPU(ok); got != 100 {
		t.Errorf("scaledCPU = %g, want 100", got)
	}
}

func TestCalmTicksLeaveOutStolenOnes(t *testing.T) {
	const n = 2 * segTicks
	steal := func(stolen ...uint64) *runState {
		r := &runState{ticks: n, stealAt: make([]uint64, n+1)}
		for t := 0; t < n; t++ {
			r.stealAt[t+1] = r.stealAt[t] + stolen[t%len(stolen)]
		}
		return r
	}
	segs := []segment{{first: 0}, {first: segTicks}}
	each := func(v int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	many := each(100)

	// Every third tick lost CPU time: the other two thirds count.
	use, k := steal(0, 0, 3).calm(segs, many)
	if k != 14 || use[2] || !use[3] {
		t.Errorf("calm picked %d ticks (%v); want the 14 with no steal", k, use)
	}
	// Steal on most ticks: half count, the least stolen first.
	use, k = steal(5, 1, 2, 9).calm(segs, many)
	if k != n/2 || !use[1] || !use[2] || use[0] || use[3] {
		t.Errorf("calm picked %d ticks (%v); want the %d least stolen", k, use, n/2)
	}
	// One latency a tick: enough ticks for ten samples beyond the tail.
	one := each(1)
	if _, k = steal(0, 1).calm(segs, one); beyond(k, tailQuantile) < minBeyond && k != n {
		t.Errorf("calm picked %d ticks of one sample each; the tail needs %d beyond", k, minBeyond)
	}
	// Ticks of a left-out segment never count.
	if use, _ = steal(0).calm(segs[1:], many); use[0] {
		t.Error("calm picked a tick of a segment it was not given")
	}
}

func TestProbeTimesEveryCPU(t *testing.T) {
	p := newProber()
	got, cost := p.probe(nil)
	if len(got) == 0 {
		t.Fatal("probe returned no times")
	}
	var sum float64
	for _, us := range got {
		if us <= 0 {
			t.Fatalf("probe times %v: want every one positive", got)
		}
		sum += us
	}
	if float64(cost)/1e3 < sum {
		t.Errorf("probe cost %d ns, less than the %g µs it timed", cost, sum)
	}
	if s := speed(2 * probeRef); s != 0.5 {
		t.Errorf("speed at twice the reference probe time = %g, want 0.5", s)
	}
}
