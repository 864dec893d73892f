package main

import (
	"sort"
	"time"
)

// The timed phase is cut into segments of segTicks ticks. Each segment
// has its own probe speed, so a host that slows down for a few seconds
// is scaled out where it happened. A segment in which the generator
// started a tick more than lateLimit late is invalid: the generator, not
// the system, set its pace, so no time metric counts it. A run with no
// valid segment fails.
const segTicks = 10

// mark is the state of the run at one segment boundary: the start of a
// segment's first tick, or the end of the drain after the last.
type mark struct {
	cpu      time.Duration // every system process, the probe included
	probeCPU int64         // ns the probe has cost so far
	handled  int           // seconds handed to the system so far
}

func (r *runState) mark(pids []int) error {
	cpu, err := cpuOf(pids)
	if err != nil {
		return err
	}
	r.marks = append(r.marks, mark{cpu: cpu, probeCPU: r.probeCPU, handled: r.handled})
	return nil
}

// probeTick runs the probe on every CPU after tick t's pushes and keeps
// its mean time.
func (r *runState) probeTick(t int) {
	var cost int64
	r.probeBuf, cost = r.prober.probe(r.probeBuf[:0])
	r.probeCPU += cost
	var sum float64
	for _, us := range r.probeBuf {
		sum += us
	}
	r.probeUS[t] = sum / float64(len(r.probeBuf))
}

// sample reads the host's steal after tick t's probe.
func (r *runState) sample(t int) error {
	var err error
	r.stealAt[t+1], _, err = stealTicks()
	return err
}

// segment is what one segment of the timed phase measured.
type segment struct {
	first   int     // the segment's first tick
	cpu     float64 // µs of system CPU per patient-second handled, raw
	handled int     // patient-seconds handed to the system
	probe   float64 // mean probe time, µs
	speed   float64 // probeRef / probe
	late    bool    // a tick started more than lateLimit late
}

// segments splits the timed phase at its marks.
func (r *runState) segments() []segment {
	segs := make([]segment, len(r.marks)-1)
	for k := range segs {
		a, b := r.marks[k], r.marks[k+1]
		s := &segs[k]
		s.handled = b.handled - a.handled
		if s.handled > 0 {
			cpu := b.cpu - a.cpu - time.Duration(b.probeCPU-a.probeCPU)
			s.cpu = cpu.Seconds() * 1e6 / float64(s.handled)
		}
		lo, hi := k*segTicks, min((k+1)*segTicks, r.ticks)
		s.first = lo
		var sum float64
		for t := lo; t < hi; t++ {
			s.late = s.late || r.late[t] > int64(lateLimit)
			sum += r.probeUS[t]
		}
		s.probe = sum / float64(hi-lo)
		s.speed = speed(s.probe)
	}
	return segs
}

// valid returns the segments in which every tick started on time.
func valid(segs []segment) []segment {
	var out []segment
	for _, s := range segs {
		if !s.late {
			out = append(out, s)
		}
	}
	return out
}

// scaledCPU is the CPU per patient-second of segs, each segment's
// scaled to the reference host.
func scaledCPU(segs []segment) float64 {
	var us, handled float64
	for _, s := range segs {
		us += s.cpu * s.speed * float64(s.handled)
		handled += float64(s.handled)
	}
	if handled == 0 {
		return 0
	}
	return us / handled
}

// stolen is the clock ticks of CPU time the host took from the machine
// during tick t: from the previous tick's probe to its own, which spans
// the time the system spent on the tick's pushes.
func (r *runState) stolen(t int) uint64 { return r.stealAt[t+1] - r.stealAt[t] }

// calm picks the ticks whose delivery latencies count, given how many
// each holds, and returns how many it picked. A host that takes a vCPU
// away for a few ms delays whatever runs on it by as much, so ticks the
// host stole CPU time from are left out: of the ticks of valid segments,
// every one with no steal counts, and if those are fewer than half, or
// hold too few latencies for the tail quantile, the least stolen of the
// rest are added until neither holds.
func (r *runState) calm(segs []segment, perTick []int) ([]bool, int) {
	use := make([]bool, r.ticks)
	var rest []int
	ticks, samples, total := 0, 0, 0
	for _, s := range segs {
		for t := s.first; t < s.first+segTicks && t < r.ticks; t++ {
			total++
			if r.stolen(t) == 0 {
				use[t] = true
				ticks++
				samples += perTick[t]
			} else {
				rest = append(rest, t)
			}
		}
	}
	sort.SliceStable(rest, func(i, j int) bool { return r.stolen(rest[i]) < r.stolen(rest[j]) })
	for _, t := range rest {
		if 2*ticks >= total && beyond(samples, tailQuantile) >= minBeyond {
			break
		}
		use[t] = true
		ticks++
		samples += perTick[t]
	}
	return use, ticks
}

// scaledLatencies returns the delivery latencies due at the calm ticks
// of segs, each scaled to the reference host by its segment's probe,
// sorted, and how many ticks they came from.
func (r *runState) scaledLatencies(segs []segment) ([]float64, int) {
	perTick := make([]int, r.ticks)
	r.eachLatency(func(t int, _ float64) { perTick[t]++ })
	use, n := r.calm(segs, perTick)
	spd := make([]float64, r.ticks)
	for _, s := range segs {
		for t := s.first; t < s.first+segTicks && t < r.ticks; t++ {
			spd[t] = s.speed
		}
	}
	var out []float64
	r.eachLatency(func(t int, ms float64) {
		if use[t] {
			out = append(out, ms*spd[t])
		}
	})
	sort.Float64s(out)
	return out, n
}
