package cluster

import (
	"fmt"
	"sort"
	"time"

	"selflearn/internal/wire"
)

// ReplicationConfig enables shard-side checkpoint replication: every
// model a shard checkpoints is pushed to the next-in-line shard under
// the patient's rendezvous order, so the shard a patient would fail
// over to already holds their detector when the failover happens.
type ReplicationConfig struct {
	// Self is this shard's address exactly as it appears in Fleet and
	// in the routers' dial lists — rendezvous placement hashes the
	// strings, so they must agree fleet-wide.
	Self string
	// Fleet is every shard address, including Self. Placement for a
	// patient is the fleet ranked by rendezvous score: position 0 is
	// the patient's home shard, positions 1..Replicas hold replicas.
	Fleet []string
	// Replicas is how many next-in-line shards hold a copy of each
	// patient's checkpoint (default 1, capped at len(Fleet)-1).
	Replicas int
}

func (c ReplicationConfig) withDefaults() ReplicationConfig {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if max := len(c.Fleet) - 1; c.Replicas > max {
		c.Replicas = max
	}
	return c
}

// Validate rejects a config whose Self is not part of the fleet — a
// misrendered address would silently disable replication for every
// patient (this shard would never find itself in any placement).
func (c ReplicationConfig) Validate() error {
	if len(c.Fleet) < 2 {
		return fmt.Errorf("cluster: replication fleet needs at least 2 shards, got %d", len(c.Fleet))
	}
	for _, addr := range c.Fleet {
		if addr == c.Self {
			return nil
		}
	}
	return fmt.Errorf("cluster: replication self %q not in fleet %v", c.Self, c.Fleet)
}

// replicator is the shard's checkpoint push path. Model updates arrive
// from the fanout loop (schedule), coalesce in a bounded queue, and a
// single goroutine pushes the latest checkpoint to the patient's
// next-in-line shard over a short-lived protocol connection. Pushes
// are best-effort: versions are monotonic and the receiver installs
// through the same guard as every model, so a lost push costs replica
// freshness until the next publish — never correctness. The chain is
// self-terminating: a shard forwards a replica it installed only while
// it sits inside the patient's replica set, so with Replicas=N each
// checkpoint settles on N shards beyond the home and stops.
type replicator struct {
	s    *ShardServer
	cfg  ReplicationConfig
	jobs chan string
	stop chan struct{}
	done chan struct{}
}

func newReplicator(s *ShardServer, cfg ReplicationConfig) *replicator {
	r := &replicator{
		s:    s,
		cfg:  cfg.withDefaults(),
		jobs: make(chan string, 1024),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.run()
	return r
}

// schedule enqueues one patient's latest checkpoint for replication.
// Non-blocking: under a burst the queue holds the patient already, and
// the push re-reads the newest version anyway.
func (r *replicator) schedule(patient string) {
	select {
	case r.jobs <- patient:
	case <-r.stop:
	default:
	}
}

func (r *replicator) close() {
	close(r.stop)
	<-r.done
}

func (r *replicator) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case p := <-r.jobs:
			r.replicate(p)
		}
	}
}

// target returns the shard the patient's checkpoint should be pushed
// to from here: the next address after Self in the patient's
// rendezvous ranking, provided Self still sits inside the replica set
// (home at position 0, replicas at 1..Replicas). Outside the set — or
// with Self last in line — there is nowhere to push ("").
func (r *replicator) target(patient string) string {
	type ranked struct {
		addr  string
		score uint64
	}
	order := make([]ranked, 0, len(r.cfg.Fleet))
	for _, addr := range r.cfg.Fleet {
		order = append(order, ranked{addr, rendezvousScore(addr, patient)})
	}
	sort.Slice(order, func(i, j int) bool {
		// The shared ordering rule keeps placement and routing agreed.
		return rendezvousLess(order[i].addr, order[i].score, order[j].addr, order[j].score)
	})
	for i, o := range order {
		if o.addr != r.cfg.Self {
			continue
		}
		if i < r.cfg.Replicas && i+1 < len(order) {
			return order[i+1].addr
		}
		return ""
	}
	return ""
}

// replicate pushes the patient's current checkpoint to their
// next-in-line shard, retrying once after a short pause. Retries are
// bounded — not looped to success — because a push is already
// per-operation bounded (dial timeout, handshake deadline, write
// deadline) and best-effort by contract: an unreachable target costs
// replica freshness until the next publish, while an unbounded retry
// loop would wedge the replicator queue behind one dead peer.
func (r *replicator) replicate(patient string) {
	target := r.target(patient)
	if target == "" {
		return
	}
	version, data := r.s.modelCheckpoint(patient)
	if version == 0 {
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		if r.push(target, patient, version, data) {
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// push dials the peer shard, handshakes, and delivers one ModelPut,
// reporting whether the frames were flushed. The connection is
// short-lived by design: checkpoint saves are retrain-rate events (per
// confirmed seizure), far too rare to be worth a persistent connection
// state machine. Dialing goes through Options.Dialer so replication
// links run under the same fault plan as router links.
func (r *replicator) push(addr, patient string, version uint64, data []byte) bool {
	conn, err := r.s.opts.Dialer(addr, r.s.opts.DialTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	dec := wire.NewDecoder(conn)
	if err := handshake(conn, enc, dec, r.s.opts.DialTimeout); err != nil {
		return false
	}
	conn.SetWriteDeadline(time.Now().Add(r.s.opts.WriteDeadline))
	if err := enc.ModelPut(0, patient, version, data); err != nil {
		return false
	}
	return enc.Flush() == nil
}
