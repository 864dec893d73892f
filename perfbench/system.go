package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/serve"
)

// stream is the handle surface serve.Stream and cluster.Stream share.
type stream interface {
	Push(c0, c1 []float64) error
	Confirm() error
	DeclarePrefilter(serve.PrefilterConfig) error
	PushDigest(serve.Digest) error
	PushAudit(c0, c1 []float64) error
}

// system is one brought-up serving system: an in-process server, or a
// router in front of shardd children.
type system struct {
	srv      *serve.Server
	local    []*serve.Stream
	router   *cluster.Router
	shards   []*shardProc
	streams  []stream
	received chan struct{} // closed when the router's event stream ends
}

// bringUp starts the system for r's workload and opens every patient's
// stream: the part of set-up before priming.
func bringUp(r *runState) (*system, error) {
	w := r.in.w
	sys := &system{}
	if !w.fleet {
		srv, err := serve.New(serveConfig(w),
			serve.WithModelStore(r.store),
			serve.WithAdmission(serve.BlockWithDeadline(0)),
			serve.WithEventSink(r.log.record))
		if err != nil {
			return nil, err
		}
		sys.srv = srv
		for _, id := range r.in.ids {
			st, err := srv.Open(id)
			if err != nil {
				sys.close()
				return nil, err
			}
			sys.local = append(sys.local, st)
			sys.streams = append(sys.streams, st)
		}
		return sys, nil
	}
	addrs, err := sys.startShards(r)
	if err != nil {
		sys.close()
		return nil, err
	}
	router, err := cluster.Dial(addrs, cluster.Options{
		QueueDepth: queueDepth,
		Admission:  serve.BlockWithDeadline(0),
		// Sized to a whole run's events, so the receiver never drops.
		EventBuffer: 1 << 15,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router = router
	sys.received = make(chan struct{})
	go func() {
		defer close(sys.received)
		for ev := range router.Events() {
			r.log.record(ev)
		}
	}()
	if err := router.WaitReady(10 * time.Second); err != nil {
		sys.close()
		return nil, err
	}
	for _, id := range r.in.ids {
		st, err := router.Open(id)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.streams = append(sys.streams, st)
	}
	if w.edge {
		for _, st := range sys.streams {
			if err := st.DeclarePrefilter(prefilterConfig()); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	return sys, nil
}

// startShards starts two shardd processes with one worker each, so the
// fleet's worker count matches the in-process server's, and returns
// their addresses once both serve. Each shard runs on one core
// (GOMAXPROCS=1): with two each, three processes' idle schedulers
// spinning on two vCPUs moved fleet CPU and latency 12-26 % between
// runs of unchanged code.
func (sys *system) startShards(r *runState) ([]string, error) {
	w := r.in.w
	args := []string{
		"-listen", "127.0.0.1:0",
		"-workers", "1",
		"-queue", fmt.Sprint(queueDepth),
		"-rate", fmt.Sprint(w.rate),
		"-history", w.history.String(),
		"-avg-seizure", avgSeizure.String(),
		"-refractory", refractory.String(),
		"-events", "16384",
		"-store", r.in.ckptDir,
	}
	for i := 0; i < 2; i++ {
		p, err := startShard(r.rc.shardd, args)
		if err != nil {
			return nil, err
		}
		sys.shards = append(sys.shards, p)
	}
	var addrs []string
	for _, p := range sys.shards {
		if err := p.ready(10 * time.Second); err != nil {
			return nil, err
		}
		addrs = append(addrs, p.addr)
	}
	return addrs, nil
}

func (sys *system) snapshot() serve.Stats {
	if sys.srv != nil {
		return sys.srv.Snapshot()
	}
	return sys.router.Snapshot()
}

// pids lists every process of the system: this one and the shards.
func (sys *system) pids() []int {
	pids := []int{os.Getpid()}
	for _, p := range sys.shards {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}

// resetPeakRSS restarts the peak RSS of the processes hosting a
// serve.Server from their current RSS. In-process, set-up's garbage is
// first collected and returned to the OS, so the peak that follows
// depends on the serving phase rather than on where set-up's last GC
// happened to fall.
func (sys *system) resetPeakRSS() error {
	if sys.srv != nil {
		debug.FreeOSMemory()
		return resetPeakRSS(os.Getpid())
	}
	for _, p := range sys.shards {
		if err := resetPeakRSS(p.cmd.Process.Pid); err != nil {
			return err
		}
	}
	return nil
}

// peakRSS sums the peak RSS of the processes hosting a serve.Server.
func (sys *system) peakRSS() (uint64, error) {
	if sys.srv != nil {
		return peakRSS(os.Getpid())
	}
	var sum uint64
	for _, p := range sys.shards {
		n, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

func (sys *system) uplink() uint64 {
	if sys.router == nil {
		return 0
	}
	return sys.router.UplinkBytes()
}

// close stops the system and waits for every process and goroutine it
// started.
func (sys *system) close() error {
	if sys.srv != nil {
		sys.srv.Close()
	}
	if sys.router != nil {
		sys.router.Close()
		<-sys.received
	}
	var errs []error
	for _, p := range sys.shards {
		if err := p.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// shardProc is one shardd child. Its log is read to the end, so the
// child never blocks on a full pipe; the line naming the address it
// serves on is the readiness signal.
type shardProc struct {
	cmd     *exec.Cmd
	addr    string
	addrc   chan string
	early   []string // log lines before readiness, read once drained is closed
	drained chan struct{}
}

func startShard(bin string, args []string) (*shardProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start shardd: %w", err)
	}
	p := &shardProc{cmd: cmd, addrc: make(chan string, 1), drained: make(chan struct{})}
	go p.scan(stderr)
	return p, nil
}

func (p *shardProc) scan(r io.Reader) {
	defer close(p.drained)
	sc := bufio.NewScanner(r)
	found := false
	for sc.Scan() {
		if found {
			continue
		}
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			p.addrc <- addr
			found = true
			continue
		}
		p.early = append(p.early, line)
	}
}

func (p *shardProc) ready(timeout time.Duration) error {
	select {
	case p.addr = <-p.addrc:
		return nil
	case <-p.drained:
		return fmt.Errorf("shardd exited before serving: %s", strings.Join(p.early, "; "))
	case <-time.After(timeout):
		return fmt.Errorf("shardd reported no address within %v", timeout)
	}
}

// stop asks the shard to drain and exit, and waits until it has.
func (p *shardProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited shard is reaped by Wait below
	select {
	case <-p.drained:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("shardd: %w", err)
	}
	return nil
}
