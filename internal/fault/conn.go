package fault

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval is how often a blocked operation re-checks its gate.
// Fault windows in tests are hundreds of milliseconds, so 1 ms keeps
// window edges sharp without measurable spin.
const pollInterval = time.Millisecond

// ErrReset is returned by operations on a connection a KindReset
// window killed.
var ErrReset = errors.New("fault: connection reset by injected fault")

// ErrTorn is returned by the Write a KindShortWrite window tore; the
// peer is left holding a partial frame and the connection is dead.
var ErrTorn = errors.New("fault: torn write (injected short write)")

// errTimeout is the net.Error a gated operation returns when its
// deadline fires while the fault holds it.
type errTimeout struct{}

func (errTimeout) Error() string   { return "fault: i/o deadline exceeded during injected fault" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// Conn wraps a net.Conn under an Injector. All fault gating happens at
// operation entry/exit; the wrapper mirrors deadlines so gated
// operations still honor SetDeadline with a proper net.Error timeout,
// which is what lets the cluster's write deadlines convert partition
// losses into counted errors instead of silent drops.
type Conn struct {
	net.Conn
	inj  *Injector
	peer string

	bytesRead atomic.Int64 // drives drop-after thresholds

	dlMu sync.Mutex
	rdl  time.Time
	wdl  time.Time

	closed  atomic.Bool
	dropped atomic.Bool // half-open: tripped drop-after is permanent
	reset   atomic.Bool
}

// WrapConn puts conn under the injector's plan with the given peer
// label (rules match on it). A nil injector returns conn unchanged.
func WrapConn(conn net.Conn, inj *Injector, peer string) net.Conn {
	if inj == nil {
		return conn
	}
	return &Conn{Conn: conn, inj: inj, peer: peer}
}

func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdl, c.wdl = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdl = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.wdl = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *Conn) deadline(read bool) time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	if read {
		return c.rdl
	}
	return c.wdl
}

// gate blocks while the operation's direction is faulted, honoring the
// mirrored deadline and connection death. It also trips the terminal
// states: reset windows kill the connection, drop-after windows flip
// it half-open once enough bytes have been read.
func (c *Conn) gate(read bool) error {
	for {
		if c.closed.Load() {
			return net.ErrClosed
		}
		if c.reset.Load() {
			return ErrReset
		}
		if _, ok := c.inj.Active(c.peer, KindReset); ok {
			c.reset.Store(true)
			c.Conn.Close()
			return ErrReset
		}
		if !c.dropped.Load() {
			if w, ok := c.inj.Active(c.peer, KindDropAfter); ok && c.bytesRead.Load() >= w.AfterBytes {
				c.dropped.Store(true)
			}
		}
		blocked := c.inj.blocked(c.peer, read)
		if c.dropped.Load() {
			if !read {
				return nil // writes black-hole; Write returns success
			}
			blocked = true // reads never complete again
		}
		if !blocked {
			return nil
		}
		if dl := c.deadline(read); !dl.IsZero() && time.Now().After(dl) {
			return errTimeout{}
		}
		time.Sleep(pollInterval)
	}
}

// pause sleeps d in small slices, aborting early if the connection
// dies — so latency windows never pin a torn-down connection's loops.
func (c *Conn) pause(d time.Duration) {
	const slice = 5 * time.Millisecond
	for d > 0 {
		if c.closed.Load() || c.reset.Load() {
			return
		}
		s := min(d, slice)
		time.Sleep(s)
		d -= s
	}
}

func (c *Conn) Read(b []byte) (int, error) {
	if err := c.gate(true); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.bytesRead.Add(int64(n))
		if w, ok := c.inj.Active(c.peer, KindLatency); ok {
			c.pause(w.Latency)
		}
		if w, ok := c.inj.Active(c.peer, KindThrottle); ok && w.KBps > 0 {
			c.pause(time.Duration(float64(n) / (w.KBps * 1024) * float64(time.Second)))
		}
	}
	return n, err
}

func (c *Conn) Write(b []byte) (int, error) {
	if err := c.gate(false); err != nil {
		return 0, err
	}
	if c.dropped.Load() {
		return len(b), nil // half-open black hole: the bytes go nowhere
	}
	if w, ok := c.inj.Active(c.peer, KindShortWrite); ok && len(b) > 1 {
		k := int(float64(len(b)) * w.Fraction)
		k = max(1, min(k, len(b)-1))
		n, _ := c.Conn.Write(b[:k])
		c.Conn.Close() // the tear kills the conn: peer holds a partial frame
		return n, ErrTorn
	}
	if w, ok := c.inj.Active(c.peer, KindLatency); ok {
		c.pause(w.Latency)
	}
	if w, ok := c.inj.Active(c.peer, KindThrottle); ok && w.KBps > 0 {
		c.pause(time.Duration(float64(len(b)) / (w.KBps * 1024) * float64(time.Second)))
	}
	return c.Conn.Write(b)
}
