package cluster

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selflearn/internal/ml/forest"
	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// ShardServer is the process side of a shard: it exposes one local
// serve.Server over the wire protocol so a Router can drive it from
// another process. cmd/shardd wraps it in a main; tests run it
// in-process on loopback listeners. The ShardServer is the sole
// consumer of its server's Events channel, fanning events out to every
// connected client without ever blocking the serving path.
//
// The ShardServer is also the shard's end of the model-distribution
// path: it answers ModelGet with the patient's current versioned
// checkpoint, installs checkpoints arriving via ModelPut (replication
// pushes from peers, failover transfers from routers), announces every
// model install to connected clients (ModelAnnounce), and — when
// Options.Replication is set — pushes each checkpoint save to the
// next-in-line shard under the patient's rendezvous order, so the shard
// a patient would fail over to already holds their detector.
//
// Lifetime: Serve starts the accept and fanout loops and returns.
// Close stops accepting and tears down client connections; the caller
// closes the serve.Server afterwards (that close also ends the fanout
// loop by closing the Events channel).
type ShardServer struct {
	srv  *serve.Server
	ln   net.Listener
	opts Options
	repl *replicator // nil without Options.Replication

	mu     sync.Mutex
	conns  map[*clientConn]struct{}
	closed bool
	wg     sync.WaitGroup

	// fanoutDropped counts events lost to a lagging client connection;
	// it is folded into the EventsDropped of every stats reply.
	fanoutDropped atomic.Uint64
}

// Serve starts a shard server for srv on ln and returns it. srv must
// not have another Events consumer. Zero-value opts select the same
// defaults as the Router's side of the protocol.
func Serve(srv *serve.Server, ln net.Listener, opts Options) *ShardServer {
	s := &ShardServer{srv: srv, ln: ln, opts: opts.withDefaults(), conns: make(map[*clientConn]struct{})}
	if s.opts.Replication != nil {
		s.repl = newReplicator(s, *s.opts.Replication)
	}
	go s.fanout()
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address (useful with ":0" listeners).
func (s *ShardServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, disconnects every client, stops the
// replicator, and waits for the connection handlers. The underlying
// serve.Server keeps running.
func (s *ShardServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*clientConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	if s.repl != nil {
		s.repl.close()
	}
	s.wg.Wait()
}

func (s *ShardServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := &clientConn{s: s, conn: conn, events: make(chan serve.Event, 1024), streams: make(map[string]*serve.Stream)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.handle()
	}
}

// fanout is the single Events consumer, broadcasting to every client.
// Model updates — learner publishes and replica installs alike — also
// feed the replicator here: versions are monotonic and the replicator
// re-reads the latest checkpoint per push, so replaying or coalescing
// updates is harmless. It exits when the serve.Server closes its
// Events channel.
func (s *ShardServer) fanout() {
	for ev := range s.srv.Events() {
		if ev.Kind == serve.EventModelUpdated && s.repl != nil {
			s.repl.schedule(ev.Patient)
		}
		s.mu.Lock()
		for c := range s.conns {
			select {
			case c.events <- ev: //selflearn:locked-ok non-blocking send; s.mu orders fanout against dropConn's close(c.events)
			default:
				s.fanoutDropped.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

func (s *ShardServer) dropConn(c *clientConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// clientConn is one peer connection into this shard — a Router, or a
// peer shard's replicator: a read loop applying Push/Confirm to
// per-patient serve.Streams and ModelPut to the model cache, and an
// event writer draining the fanout buffer. Stats and model replies and
// pongs are written from the read loop; the write mutex keeps frames
// whole.
type clientConn struct {
	s    *ShardServer
	conn net.Conn

	writeMu sync.Mutex
	enc     *wire.Encoder

	events  chan serve.Event
	streams map[string]*serve.Stream
}

// stream lazily opens this connection's handle for a patient. Handles
// are per connection, so a reconnecting client gets fresh handles while
// the server-side sessions (and models) persist untouched.
func (c *clientConn) stream(patient string) (*serve.Stream, error) {
	if h, ok := c.streams[patient]; ok {
		return h, nil
	}
	h, err := c.s.srv.Open(patient)
	if err != nil {
		return nil, err
	}
	c.streams[patient] = h
	return h, nil
}

func (c *clientConn) handle() {
	defer c.s.wg.Done()
	defer c.conn.Close()
	var writerDone chan struct{}
	defer func() {
		// Deregister from fanout before closing the event channel:
		// dropConn takes s.mu, which fanout holds across its sends, so
		// once it returns no fanout iteration can still see this conn —
		// closing first would race fanout into a send on a closed
		// channel and panic the whole shard process.
		c.s.dropConn(c)
		close(c.events)
		if writerDone != nil {
			<-writerDone
		}
		for _, h := range c.streams {
			h.Close()
		}
	}()

	enc := wire.NewEncoder(c.conn)
	dec := wire.NewDecoder(c.conn)
	// Handshake mirrors the client: Hello both ways, only a peer at
	// exactly wire.Version accepted, bounded by the shared write deadline.
	c.conn.SetDeadline(time.Now().Add(c.s.opts.WriteDeadline))
	m, err := dec.Next()
	if err != nil || m.Kind != wire.KindHello || m.Version != wire.Version {
		return
	}
	if err := enc.Hello(); err != nil {
		return
	}
	if err := enc.Flush(); err != nil {
		return
	}
	c.conn.SetDeadline(time.Time{})
	c.writeMu.Lock()
	c.enc = enc
	c.writeMu.Unlock()

	writerDone = make(chan struct{})
	go c.eventWriter(writerDone)

	for {
		// Arm the idle deadline only around waiting for the next frame:
		// a half-open peer (host gone, no FIN ever arrives) is reaped
		// after ReadIdleTimeout instead of pinning this goroutine and
		// its patient handles forever, while a frame stalled in apply's
		// backpressure loop — deliberate flow control — never trips it.
		// Any live router refreshes it every PingInterval.
		// (The deadline is re-armed per frame, and reads only happen
		// here, so an apply stall never sees a stale deadline fire.)
		c.conn.SetReadDeadline(time.Now().Add(c.s.opts.ReadIdleTimeout))
		m, err := dec.Next()
		if err != nil {
			return
		}
		switch m.Kind {
		case wire.KindPush, wire.KindPushQ:
			h, err := c.stream(m.Patient)
			if err != nil {
				return // server closed; connection is useless now
			}
			if !c.apply(func() error { return h.Push(m.C0, m.C1) }) {
				return
			}
		case wire.KindConfirm:
			h, err := c.stream(m.Patient)
			if err != nil {
				return
			}
			if !c.apply(h.Confirm) {
				return
			}
		case wire.KindPrefilterDecl:
			h, err := c.stream(m.Patient)
			if err != nil {
				return
			}
			if !c.apply(func() error { return h.DeclarePrefilter(m.Prefilter) }) {
				return
			}
		case wire.KindPushDigest:
			h, err := c.stream(m.Patient)
			if err != nil {
				return
			}
			if !c.apply(func() error { return h.PushDigest(m.Digest) }) {
				return
			}
		case wire.KindAuditPush:
			h, err := c.stream(m.Patient)
			if err != nil {
				return
			}
			if !c.apply(func() error { return h.PushAudit(m.C0, m.C1) }) {
				return
			}
		case wire.KindPing:
			if err := c.send(func(e *wire.Encoder) error { return e.Pong(m.Token) }); err != nil {
				return
			}
		case wire.KindStatsReq:
			st := c.s.srv.Snapshot()
			st.EventsDropped += c.s.fanoutDropped.Load()
			if err := c.send(func(e *wire.Encoder) error { return e.Stats(m.Token, st) }); err != nil {
				return
			}
		case wire.KindModelGet:
			v, data := c.s.modelCheckpoint(m.Patient)
			if err := c.send(func(e *wire.Encoder) error { return e.ModelPut(m.Token, m.Patient, v, data) }); err != nil {
				return
			}
		case wire.KindModelPut:
			// A replica pushed by a peer shard, or a failover transfer
			// from a router. Installing through the serve.Server keeps
			// the monotonic version guard and re-announces the install
			// (EventModelUpdated → fanout → ModelAnnounce), so routers
			// learn this shard now serves the patient at that version.
			// A payload that fails to parse is dropped — one bad frame
			// must cost the replica, not the connection's live streams.
			if m.ModelVersion > 0 && len(m.Model) > 0 {
				if f, err := forest.LoadFlat(bytes.NewReader(m.Model)); err == nil {
					c.s.srv.InstallModel(m.Patient, f, m.ModelVersion)
				}
			}
		}
	}
}

// modelCheckpoint marshals the patient's current model for the wire;
// (0, nil) when the patient has no model — or has one too large for a
// frame. The size check happens here, not at encode time, because an
// encoder refusal inside a reply would tear down a healthy connection
// and every live stream on it; an unreplicable model must degrade to
// "no model" (the patient fails over cold, as before replication).
func (s *ShardServer) modelCheckpoint(patient string) (uint64, []byte) {
	f, v := s.srv.ModelVersioned(patient)
	if f == nil || v == 0 {
		return 0, nil
	}
	data, err := f.MarshalJSON()
	if err != nil || len(data) > wire.MaxFrame-1024 {
		return 0, nil
	}
	return v, data
}

// apply runs one serving call, retrying on backpressure: stalling this
// connection's read loop is the cluster's flow control — the TCP
// window fills and the client's outbound queue (where the admission
// policy lives) takes over. Only a closed server gives up.
func (c *clientConn) apply(fn func() error) bool {
	for {
		err := fn()
		if err == nil {
			return true
		}
		if err != serve.ErrBackpressure {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// send runs one encode+flush under the write lock, bounded by the
// configured write deadline.
func (c *clientConn) send(f func(*wire.Encoder) error) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.s.opts.WriteDeadline))
	if err := f(c.enc); err != nil { //selflearn:locked-ok writeMu IS the encoder serialization point; the write deadline bounds it
		return err
	}
	return c.enc.Flush()
}

// eventWriter drains this connection's fanout buffer onto the wire,
// flushing when the buffer goes idle. A model update is followed by a
// payload-free ModelAnnounce so the client's per-patient version table
// stays current even if it ignores the event stream.
func (c *clientConn) eventWriter(done chan struct{}) {
	defer close(done)
	for ev := range c.events {
		c.writeMu.Lock()
		c.conn.SetWriteDeadline(time.Now().Add(c.s.opts.WriteDeadline))
		var err error
		if ev.Kind == serve.EventAuditRequest {
			// Cross as the dedicated frame so the router's read loop
			// resurfaces it uniformly with local mode.
			err = c.enc.AuditRequest(ev.Patient)
		} else {
			err = c.enc.Event(ev)
		}
		if err == nil && ev.Kind == serve.EventModelUpdated {
			err = c.enc.ModelAnnounce(ev.Patient, ev.Version)
		}
		if err == nil && len(c.events) == 0 {
			err = c.enc.Flush()
		}
		c.writeMu.Unlock()
		if err != nil {
			// The read loop will notice the dead socket; keep draining so
			// fanout never blocks on this connection.
			for range c.events {
			}
			return
		}
	}
}
