package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sync/atomic"

	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// shardConn is one shardd backend: the outbound job queue (a
// serve.Queue, so admission is byte-for-byte the local semantics), the
// TCP connection, and the manage loop that keeps the two attached —
// dial, Hello handshake, ping probe, teardown, reconnect with backoff.
// It implements serve.Shard, so a stream's route enqueues at it exactly
// as a local stream does at an in-process worker.
type shardConn struct {
	r    *Router
	addr string

	queue   *serve.Queue
	healthy atomic.Bool

	// uplinkBytes totals the framed bytes of every job this connection
	// put on the wire (pushes, digests, audits, confirms, declarations —
	// not control traffic), across reconnects. It is the cluster side of
	// the uplink-reduction accounting: digests standing in for suppressed
	// batches show up here as exactly the bytes they cost.
	uplinkBytes atomic.Uint64

	// writeMu serializes frame writers (the queue drainer, pings, and
	// stats requests) onto enc; enc is nil while disconnected.
	writeMu sync.Mutex
	enc     *wire.Encoder
	conn    net.Conn

	lastPong atomic.Int64 // UnixNano of the latest pong

	// pending holds the waiters of stats and model requests in flight,
	// by request token.
	pendMu  sync.Mutex
	pending map[uint64]chan wire.Msg

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newShardConn(r *Router, addr string) *shardConn {
	sc := &shardConn{
		r:       r,
		addr:    addr,
		pending: make(map[uint64]chan wire.Msg),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	sc.queue = serve.NewQueue(r.opts.QueueDepth, serve.QueueHooks{
		Shed: func(j serve.Job) {
			r.batchesShed.Add(1)
			r.emit(serve.Event{Kind: serve.EventShed, Patient: j.Patient})
		},
		ConfirmLost: func(serve.Job) { r.confirmsDropped.Add(1) },
	})
	return sc
}

// Enqueue implements serve.Shard. A down backend refuses immediately —
// the queue would otherwise absorb QueueDepth jobs that may be stale by
// reconnect time — and the stream's route re-resolves to a healthy
// peer instead.
func (sc *shardConn) Enqueue(p serve.AdmissionPolicy, j serve.Job) error {
	if !sc.healthy.Load() {
		return ErrShardDown
	}
	return sc.queue.Offer(p, j)
}

// Congested implements serve.Shard.
func (sc *shardConn) Congested(p serve.AdmissionPolicy) bool { return sc.queue.FastReject(p) }

// manage is the connection's lifecycle loop, running until Router.Close.
// Backoff is exponential (doubling, capped at 8× base) with equal
// jitter: each wait lands uniformly in [backoff/2, backoff), so a
// fleet of routers cut off by the same partition does not redial the
// healed backend in lockstep. The jitter RNG is seeded from the shard
// address, keeping reconnect traces reproducible run to run.
func (sc *shardConn) manage() {
	defer close(sc.done)
	rng := rand.New(rand.NewSource(int64(fnv64(sc.addr))))
	backoff := sc.r.opts.ReconnectBackoff
	for {
		select {
		case <-sc.stop:
			return
		default:
		}
		conn, err := sc.r.opts.Dialer(sc.addr, sc.r.opts.DialTimeout)
		if err != nil {
			if !sc.sleep(jittered(rng, backoff)) {
				return
			}
			backoff = min(backoff*2, 8*sc.r.opts.ReconnectBackoff)
			continue
		}
		backoff = sc.r.opts.ReconnectBackoff
		stopped := sc.session(conn)
		if stopped {
			return
		}
		// Brief pause before redialing so a crash-looping backend is not
		// hammered.
		if !sc.sleep(jittered(rng, backoff)) {
			return
		}
	}
}

// jittered spreads one backoff delay uniformly over [d/2, d).
func jittered(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)))
}

// sleep waits d unless the router closes first.
func (sc *shardConn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-sc.stop:
		return false
	case <-t.C:
		return true
	}
}

// session runs one connected era: handshake, then reader + writer +
// ping loop until the connection dies or the router stops. Returns
// whether the router stopped (no reconnect wanted).
func (sc *shardConn) session(conn net.Conn) (stopped bool) {
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	if err := handshake(conn, enc, dec, sc.r.opts.DialTimeout); err != nil {
		conn.Close()
		return false
	}

	sc.writeMu.Lock()
	sc.enc = enc
	sc.conn = conn
	sc.writeMu.Unlock()
	sc.lastPong.Store(time.Now().UnixNano())
	sc.healthy.Store(true)
	sc.r.epoch.Add(1)

	readerDone := make(chan struct{})
	go sc.readLoop(dec, readerDone)
	writerStop := make(chan struct{})
	writerDone := make(chan struct{})
	go sc.writeLoop(conn, writerStop, writerDone)

	ping := time.NewTicker(sc.r.opts.PingInterval)
	defer ping.Stop()
loop:
	for {
		select {
		case <-sc.stop:
			stopped = true
			break loop
		case <-readerDone:
			break loop
		case <-ping.C:
			if time.Since(time.Unix(0, sc.lastPong.Load())) > sc.r.opts.PingTimeout {
				break loop
			}
			if err := sc.send((*wire.Encoder).Ping); err != nil {
				break loop
			}
		}
	}

	// Teardown: unhealthy first so resolve stops handing this shard
	// out, then cut the socket to unblock reader and writer.
	sc.healthy.Store(false)
	sc.r.epoch.Add(1)
	sc.writeMu.Lock()
	sc.enc = nil
	sc.conn = nil
	sc.writeMu.Unlock()
	conn.Close()
	close(writerStop)
	<-writerDone
	<-readerDone
	// Jobs stranded in the outbound queue would be stale (possibly very
	// stale) by the time a reconnect drains them, and their patients are
	// already rerouting to surviving shards: discard and account.
	for {
		j, ok := sc.queue.TryRecv()
		if !ok {
			break
		}
		sc.r.lostJob(j)
	}
	sc.failPending()
	return stopped
}

// handshake exchanges Hello frames under a deadline and refuses any
// peer that does not speak exactly wire.Version: every peer is built
// from the same source, so there is nothing to negotiate.
func handshake(conn net.Conn, enc *wire.Encoder, dec *wire.Decoder, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if err := enc.Hello(); err != nil {
		return err
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	m, err := dec.Next()
	if err != nil {
		return err
	}
	if m.Kind != wire.KindHello || m.Version != wire.Version {
		return fmt.Errorf("cluster: peer speaks %v v%d, want hello v%d", m.Kind, m.Version, wire.Version)
	}
	return conn.SetDeadline(time.Time{})
}

// send runs one encode+flush under the write lock; ErrShardDown while
// disconnected. The configured write deadline bounds the flush so a
// peer that stopped reading cannot wedge the caller.
func (sc *shardConn) send(f func(*wire.Encoder) error) error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	if sc.enc == nil {
		return ErrShardDown
	}
	sc.conn.SetWriteDeadline(time.Now().Add(sc.r.opts.WriteDeadline))
	if err := f(sc.enc); err != nil { //selflearn:locked-ok writeMu IS the encoder serialization point; the write deadline bounds it
		return err
	}
	return sc.enc.Flush()
}

// writeLoop drains the outbound queue onto the connection, flushing
// whenever the queue goes idle so a trickle of batches is not held
// hostage by the 64 KB encoder buffer.
func (sc *shardConn) writeLoop(conn net.Conn, stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case j := <-sc.queue.C():
			sc.writeMu.Lock()
			var err error
			if sc.enc == nil {
				err = ErrShardDown
			} else {
				sc.conn.SetWriteDeadline(time.Now().Add(sc.r.opts.WriteDeadline))
				before := sc.enc.BytesWritten()
				switch {
				case j.Confirm:
					err = sc.enc.Confirm(j.Patient)
				case j.Declare != nil:
					err = sc.enc.PrefilterDecl(j.Patient, *j.Declare)
				case j.Digest != nil:
					err = sc.enc.PushDigest(j.Patient, *j.Digest)
				case j.Audit:
					err = sc.enc.AuditPush(j.Patient, j.C0, j.C1)
				default:
					err = sc.enc.Push(j.Patient, j.C0, j.C1)
				}
				sc.uplinkBytes.Add(sc.enc.BytesWritten() - before)
			}
			if err == nil && sc.queue.Depth() == 0 {
				err = sc.enc.Flush()
			}
			sc.writeMu.Unlock()
			if err != nil {
				sc.r.lostJob(j)
				// Cut the socket so the reader and manage loop notice;
				// remaining queued jobs are cleared in teardown.
				conn.Close()
				return
			}
		}
	}
}

// readLoop decodes shard→client frames until the connection dies:
// events fan into the router's merged stream (a model update also feeds
// the router's version table), stats and model replies resolve pending
// requests, pongs feed the health probe.
func (sc *shardConn) readLoop(dec *wire.Decoder, done chan struct{}) {
	defer close(done)
	for {
		m, err := dec.Next()
		if err != nil {
			return
		}
		switch m.Kind {
		case wire.KindEvent:
			if m.Event.Kind == serve.EventModelUpdated {
				sc.r.noteModelVersion(m.Event.Patient, m.Event.Version)
			}
			sc.r.emit(m.Event)
		case wire.KindPong:
			sc.lastPong.Store(time.Now().UnixNano())
		case wire.KindStats, wire.KindModelPut:
			// A reply to a stats or model request; unsolicited puts
			// toward a client have no waiter and are dropped here.
			sc.pendMu.Lock()
			ch := sc.pending[m.Token]
			delete(sc.pending, m.Token)
			sc.pendMu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
	}
}

// request sends the request frame enc writes under a fresh token and
// waits for the reply on that token, which must be a frame of kind
// want: a reply of another kind is an error, as a timeout is.
func (sc *shardConn) request(want wire.Kind, what string, timeout time.Duration, enc func(e *wire.Encoder, token uint64) error) (wire.Msg, error) {
	token := sc.r.statsToken.Add(1)
	ch := make(chan wire.Msg, 1)
	sc.pendMu.Lock()
	sc.pending[token] = ch
	sc.pendMu.Unlock()
	drop := func() {
		sc.pendMu.Lock()
		delete(sc.pending, token)
		sc.pendMu.Unlock()
	}
	if err := sc.send(func(e *wire.Encoder) error { return enc(e, token) }); err != nil {
		drop()
		return wire.Msg{}, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m := <-ch:
		if m.Kind != want {
			return wire.Msg{}, fmt.Errorf("cluster: %s from %s answered with a %v frame", what, sc.addr, m.Kind)
		}
		return m, nil
	case <-t.C:
		drop()
		return wire.Msg{}, fmt.Errorf("cluster: %s timeout from %s", what, sc.addr)
	}
}

// modelGet requests the backend's current checkpoint for a patient and
// waits for the correlated ModelPut reply: version 0 with no data means
// the shard holds no model for the patient.
func (sc *shardConn) modelGet(patient string, timeout time.Duration) (uint64, []byte, error) {
	m, err := sc.request(wire.KindModelPut, "model reply", timeout, func(e *wire.Encoder, token uint64) error {
		return e.ModelGet(token, patient)
	})
	return m.ModelVersion, m.Model, err
}

// modelPut pushes one versioned checkpoint to the backend — the
// router-mediated leg of a failover transfer. The put is flushed on the
// socket before it returns, so frames sent afterwards are processed
// after the shard installed the model.
func (sc *shardConn) modelPut(patient string, version uint64, checkpoint []byte) error {
	return sc.send(func(e *wire.Encoder) error { return e.ModelPut(0, patient, version, checkpoint) })
}

// stats requests one snapshot from the backend and waits for the
// correlated reply.
func (sc *shardConn) stats(timeout time.Duration) (serve.Stats, error) {
	m, err := sc.request(wire.KindStats, "stats", timeout, func(e *wire.Encoder, token uint64) error {
		return e.StatsReq(token)
	})
	return m.Stats, err
}

// failPending abandons stats and model requests in flight on a dying
// connection; their waiters time out.
func (sc *shardConn) failPending() {
	sc.pendMu.Lock()
	clear(sc.pending)
	sc.pendMu.Unlock()
}
