// Package fault is the seeded, deterministic fault-injection layer for
// the cluster tier: net.Conn / net.Listener wrappers that impose
// latency, bandwidth throttling, one-way and full partitions,
// drop-after-N-bytes half-open connections, short (torn) writes,
// connection resets, and accept stalls — plus a serve.ModelStore
// wrapper that injects save/load errors, store latency, and torn
// checkpoint files.
//
// Everything is driven by a declarative Plan: a seed plus a list of
// Rules, expanded once (at Injector construction) into a sorted
// schedule of timed Windows. All randomness — occurrence jitter, torn
// file fractions — is drawn during that expansion from
// rand.New(rand.NewSource(seed)), so the same Plan always produces the
// byte-identical schedule and a chaos run replays exactly. At runtime
// the Injector only compares an injected clock against precomputed
// window bounds; no wall-clock randomness remains.
//
// Faults gate at operation boundaries: a Read or Write entering the
// wrapper observes the windows active at that instant. A window
// opening while the underlying call is already blocked takes effect on
// the next operation — window onset is sharp to within one frame,
// which is the granularity the cluster protocol works in anyway.
//
// Injection seams: cluster.Options.Dialer accepts Injector.Dial on the
// client side; fault.NewListener wraps a shardd's listener on the
// server side; fault.NewStore wraps its model store. scenario.Spec
// carries a Plan in its Faults section, and cmd/loadgen / cmd/shardd
// load one from -faults plan.json.
package fault

// Kind names one fault class. Conn kinds act on wrapped connections,
// Listener kinds on accept, Store kinds on the model store.
type Kind string

const (
	// KindLatency adds Rule.LatencyMs to every read delivery and write
	// submission on matching connections.
	KindLatency Kind = "latency"
	// KindThrottle caps matching connections to Rule.KBps kilobytes per
	// second in each direction.
	KindThrottle Kind = "throttle"
	// KindPartition blocks reads and writes on matching connections for
	// the window — TCP-retransmit semantics: bytes are neither lost nor
	// delivered, callers block until their deadline fires or the window
	// heals. Writers therefore always observe their losses as deadline
	// errors; nothing is silently dropped.
	KindPartition Kind = "partition"
	// KindPartitionIn blocks only reads (inbound data stalls).
	KindPartitionIn Kind = "partition-in"
	// KindPartitionOut blocks only writes (outbound data stalls).
	KindPartitionOut Kind = "partition-out"
	// KindDropAfter turns the connection half-open once Rule.AfterBytes
	// have been read during the window: reads block forever (no FIN
	// ever arrives) and writes succeed into a black hole, exactly like
	// a peer whose host vanished mid-conversation. This is the fault
	// class read deadlines and ping probes exist to reap; unlike
	// partitions it does lose written bytes silently, so tests keep
	// accounting-critical traffic outside drop windows.
	KindDropAfter Kind = "drop-after"
	// KindShortWrite tears one write per matching connection per
	// window: Rule.Fraction of the buffer reaches the wire, then the
	// connection dies — the peer is left holding a partial frame.
	KindShortWrite Kind = "short-write"
	// KindReset closes matching connections with an error on the next
	// operation, like a peer sending RST.
	KindReset Kind = "reset"
	// KindAcceptStall delays accepted connections on matching listeners
	// until the window closes (handshakes time out dialer-side).
	KindAcceptStall Kind = "accept-stall"
	// KindStoreSaveErr fails matching stores' Save/SaveVersion.
	KindStoreSaveErr Kind = "store-save-err"
	// KindStoreLoadErr fails matching stores' Load/LoadVersion.
	KindStoreLoadErr Kind = "store-load-err"
	// KindStoreLatency adds Rule.LatencyMs to every store operation.
	KindStoreLatency Kind = "store-latency"
	// KindTornWrite lets SaveVersion write the checkpoint file, then
	// truncates it to Rule.Fraction of its length — a crash mid-write.
	// Requires the wrapped store to be a serve.FileStore; other stores
	// degrade to a save error.
	KindTornWrite Kind = "torn-write"
)

// valid reports whether k names a known fault class.
func (k Kind) valid() bool {
	switch k {
	case KindLatency, KindThrottle, KindPartition, KindPartitionIn,
		KindPartitionOut, KindDropAfter, KindShortWrite, KindReset,
		KindAcceptStall, KindStoreSaveErr, KindStoreLoadErr,
		KindStoreLatency, KindTornWrite:
		return true
	}
	return false
}
