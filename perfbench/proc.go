package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"selflearn/internal/serve"
)

// clock reads monotonic nanoseconds since its base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every architecture Linux and Go support together.
const clockTicks = 100

// statCPU returns utime+stime, in clock ticks, from a /proc/<pid>/stat
// line. The command name may hold spaces and parentheses, so fields are
// counted from the last ')'; utime and stime are fields 14 and 15.
func statCPU(line string) (uint64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("stat line has no command name")
	}
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// cpuOf sums the user and system CPU every process in pids has used.
func cpuOf(pids []int) (time.Duration, error) {
	var ticks uint64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		t, err := statCPU(string(data))
		if err != nil {
			return 0, fmt.Errorf("pid %d: %w", pid, err)
		}
		ticks += t
	}
	return time.Duration(ticks) * (time.Second / clockTicks), nil
}

// stealTicks returns the machine-wide steal time and the total of every
// CPU time column from /proc/stat, in clock ticks: how much of the VM's
// CPU time its host gave to others, which slows everything measured.
func stealTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank p-quantile of ascending xs: the
// smallest sample with at least a share p of the samples at or below it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(len(xs), p)-1]
}

// beyond is how many of n samples lie above the p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// completingSecond is the index, in the stream a session ingested, of
// the second whose arrival completed the window an alarm fired on:
// window k spans seconds k..k+3.
func completingSecond(streamTime float64) int {
	return int(math.Round(streamTime)) + windowSeconds - 1
}

// dueTick maps an alarm to the tick that pushed the second completing
// its window. ship lists the stream second behind each second the
// session ingested when an edge gate shipped only some (nil: all). ok is
// false for an alarm completed during set-up.
func dueTick(streamTime float64, prime int, ship []int32) (tick int, ok bool) {
	sec := completingSecond(streamTime)
	if ship != nil {
		if sec >= len(ship) {
			return 0, false
		}
		sec = int(ship[sec])
	}
	return sec - prime, sec >= prime
}

// evRec is one received event.
type evRec struct {
	at      int64 // receipt, on the run clock
	stream  float64
	patient int32
	kind    serve.EventKind
}

// eventLog records every event the client receives into preallocated
// storage. record is safe for concurrent use: in-process it runs as the
// server's event sink on the serving goroutines.
type eventLog struct {
	clk   clock
	index map[string]int
	recs  []evRec
	n     atomic.Int64
	lost  atomic.Int64

	alarms      atomic.Uint64
	modelAt     []atomic.Int64  // per patient: receipt of its latest EventModelUpdated
	modelVer    []atomic.Uint64 // per patient: that event's version
	retrained   []atomic.Bool   // per patient: an EventRetrain arrived
	retrainErrs atomic.Uint64
	drift       atomic.Uint64
	shed        atomic.Uint64
}

func newEventLog(clk clock, in *inputs, capacity int) *eventLog {
	n := len(in.ids)
	return &eventLog{
		clk:       clk,
		index:     in.index,
		recs:      make([]evRec, capacity),
		modelAt:   make([]atomic.Int64, n),
		modelVer:  make([]atomic.Uint64, n),
		retrained: make([]atomic.Bool, n),
	}
}

func (l *eventLog) record(ev serve.Event) {
	at := l.clk.now()
	p, ok := l.index[ev.Patient]
	if !ok {
		return
	}
	switch ev.Kind {
	case serve.EventAlarm:
		l.alarms.Add(1)
	case serve.EventModelUpdated:
		l.modelVer[p].Store(ev.Version)
		l.modelAt[p].Store(at)
	case serve.EventRetrain:
		if ev.Err != nil {
			l.retrainErrs.Add(1)
		}
		l.retrained[p].Store(true)
		return
	case serve.EventPrefilterDrift:
		l.drift.Add(1)
	case serve.EventShed:
		l.shed.Add(1)
	default:
		return
	}
	i := l.n.Add(1) - 1
	if i >= int64(len(l.recs)) {
		l.lost.Add(1)
		return
	}
	l.recs[i] = evRec{at: at, stream: ev.StreamTime, patient: int32(p), kind: ev.Kind}
}

// settled reports whether patient p's retrain has an outcome.
func (l *eventLog) settled(p int) bool {
	return l.modelAt[p].Load() != 0 || l.retrained[p].Load()
}

// events returns the recorded events; call it once the system is closed.
func (l *eventLog) events() []evRec {
	return l.recs[:min(l.n.Load(), int64(len(l.recs)))]
}
