package main

import (
	"math"
	"runtime"
	"syscall"
	"unsafe"
)

// The benchmark's host shares physical cores with other tenants, and how
// fast a vCPU runs follows what they do: a fixed kernel's CPU time
// switched between about 1x and 1.6x from one second to the next, and
// the system's CPU per patient-second moved ±10 % between runs of
// unchanged code minutes apart. So once per tick, in the idle end of the
// tick, the generator times a fixed kernel of its own — the probe — on
// every CPU, by the thread's CPU time, and each time metric is scaled by
// probeRef over the mean probe time of its segment: reported as if the
// host ran the probe in probeRef. Across six runs of unchanged code whose
// raw CPU per patient-second spanned 91-112 µs, it divided by the probe
// time spanned ±1.6 %. The probe's own CPU is taken out of the system's.
const (
	// probeRef is the probe's time on an uncontended core of the machine
	// the bounds were set on (a 2-vCPU Intel Xeon VM).
	probeRef = 200.0 // µs
	// probeReps sizes the probe: this many 1024-point FFTs, about
	// probeRef of CPU.
	probeReps = 5
	// probeAt is where in each tick the probe runs: by then the system
	// has finished with the tick's pushes (p99 latency stays under half a
	// tick).
	probeAt = tick * 3 / 4
	// setupProbes is how many times the probe runs on each CPU just
	// before and just after each set-up, to scale it.
	setupProbes = 10
)

// prober times the probe kernel pinned to each CPU this process may use.
type prober struct {
	mask cpuMask // the process's CPUs, restored after each probe
	cpus []int   // nil: the CPUs cannot be pinned; probe where scheduled
	buf  []complex128
	sink float64
}

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func newProber() *prober {
	p := &prober{buf: make([]complex128, 1024)}
	if err := getAffinity(&p.mask); err != nil {
		return p
	}
	for c := 0; c < 64*len(p.mask); c++ {
		if p.mask[c/64]&(1<<(c%64)) != 0 {
			p.cpus = append(p.cpus, c)
		}
	}
	return p
}

// probe times the kernel once on each CPU, in µs of the thread's CPU
// time, appending to out, and returns the CPU time the probe cost in
// all, in ns.
func (p *prober) probe(out []float64) ([]float64, int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	n := len(p.cpus)
	if n == 0 {
		n = runtime.NumCPU()
	}
	for i := 0; i < n; i++ {
		if p.cpus != nil {
			var one cpuMask
			c := p.cpus[i]
			one[c/64] = 1 << (c % 64)
			_ = setAffinity(&one) // on failure the kernel runs where it is
		}
		t0 := threadCPU()
		p.sink += p.kernel()
		out = append(out, float64(threadCPU()-t0)/1e3)
	}
	if p.cpus != nil {
		// The process's own mask, read at start: restoring it fails only
		// if every one of its CPUs went offline.
		_ = setAffinity(&p.mask)
	}
	return out, threadCPU() - start
}

// kernel is the probe's fixed work: probeReps in-place radix-2 FFTs of
// 1024 points. It is the benchmark's own code, so it costs the same
// whatever the program under test does.
func (p *prober) kernel() float64 {
	buf := p.buf
	n := len(buf)
	var sum float64
	for r := 0; r < probeReps; r++ {
		for i := range buf {
			buf[i] = complex(float64((i*7+r)%13), 0)
		}
		for i, j := 1, 0; i < n; i++ {
			bit := n >> 1
			for ; j&bit != 0; bit >>= 1 {
				j ^= bit
			}
			j ^= bit
			if i < j {
				buf[i], buf[j] = buf[j], buf[i]
			}
		}
		for size := 2; size <= n; size <<= 1 {
			ang := -2 * math.Pi / float64(size)
			w := complex(math.Cos(ang), math.Sin(ang))
			for start := 0; start < n; start += size {
				wk := complex(1, 0)
				for k := 0; k < size/2; k++ {
					a, b := buf[start+k], buf[start+k+size/2]*wk
					buf[start+k], buf[start+k+size/2] = a+b, a-b
					wk *= w
				}
			}
		}
		sum += real(buf[1])
	}
	return sum
}

// threadCPU is the calling thread's CPU time in ns. Linux supports
// CLOCK_THREAD_CPUTIME_ID on every kernel Go runs on, so the call
// cannot fail.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

func getAffinity(m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func setAffinity(m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// speed is the factor that scales a time measured while the probe took
// probeUS to the reference host: probeRef / probeUS.
func speed(probeUS float64) float64 {
	if probeUS <= 0 {
		return 1
	}
	return probeRef / probeUS
}
