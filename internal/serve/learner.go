package serve

import (
	"fmt"
	"hash/fnv"
	"sync"

	"selflearn/internal/core"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
)

// retrainJob carries one confirmed-seizure history to the learner pool.
type retrainJob struct {
	sess *session
	rows [][]float64
	seq  int64
}

// learner is the background self-learning pool: it runs the
// a-posteriori labeling algorithm on confirmed buffers and retrains
// per-patient forests off the real-time path.
type learner struct {
	srv  *Server
	jobs chan retrainJob
	wg   sync.WaitGroup
}

func newLearner(s *Server, workers, queue int) *learner {
	l := &learner{srv: s, jobs: make(chan retrainJob, queue)}
	l.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer l.wg.Done()
			for j := range l.jobs {
				err := l.retrain(j)
				if err != nil {
					s.retrainErrors.Add(1)
				} else {
					s.retrains.Add(1)
				}
				s.hub.emit(Event{Kind: EventRetrain, Patient: j.sess.id, Err: err})
			}
		}()
	}
	return l
}

// schedule hands a job to the pool without blocking; false means the
// learner queue is full and the confirmation was dropped.
func (l *learner) schedule(j retrainJob) bool {
	select {
	case l.jobs <- j:
		return true
	default:
		return false
	}
}

func (l *learner) close() {
	close(l.jobs)
	l.wg.Wait()
}

// retrain labels the buffered history with Algorithm 1 and retrains the
// patient's detector on the self-labeled windows, installing the new
// model into both the live session and the shared cache.
func (l *learner) retrain(j retrainJob) error {
	cfg := l.srv.cfg
	m := &features.Matrix{
		Names:      features.PaperFeatureNames(),
		Rows:       j.rows,
		Window:     cfg.FeatureCfg.Window,
		SampleRate: cfg.SampleRate,
	}
	_, res, err := core.LabelMatrix(m, cfg.AvgSeizureDuration)
	if err != nil {
		return err
	}
	X, y := selfLabeledSet(j.rows, res.Index, res.Window)
	if len(X) == 0 {
		return fmt.Errorf("serve: empty self-labeled training set")
	}
	fcfg := cfg.ForestCfg
	h := fnv.New64a()
	h.Write([]byte(j.sess.id))
	fcfg.Seed = int64(h.Sum64()) ^ j.seq
	f, err := forest.Train(X, y, fcfg)
	if err != nil {
		return err
	}
	// Flatten once at train time: everything downstream — the worker's
	// classify path, the model cache, and checkpoints — works
	// on the inference-optimized representation. Flatten also builds the
	// int16-quantized companion; verify it reproduces the float vote
	// count on every training row and drop it on any disagreement, so a
	// quantized model can never serve a decision the float model wouldn't.
	flat := f.Flatten()
	if !flat.QuantParity(X) {
		flat.DropQuant()
	}
	// Two learners can finish the same patient's retrains out of order;
	// only the highest sequence may install. The check and the publish
	// must be one critical section: a bare CAS gate would let a
	// descheduled older retrain publish after a newer one already did.
	j.sess.installMu.Lock()
	if j.seq <= j.sess.installedSeq.Load() {
		j.sess.installMu.Unlock()
		return nil
	}
	j.sess.installedSeq.Store(j.seq)
	// Publish to the shared cache before the captured session pointer:
	// if the session was LRU-evicted and recreated while training ran,
	// the live replacement reconciles from the cache (dispatch.go), so
	// the cache must never lag the session. Publish is the explicit
	// checkpoint step of the model lifecycle: it allocates the next
	// monotonic per-patient version, writes the versioned checkpoint
	// through to the store, and the EventModelUpdated announcement below
	// is what the cluster layer keys replication and warm failover off.
	version := l.srv.cache.Publish(j.sess.id, flat) //selflearn:locked-ok installMu IS the check-then-publish critical section
	j.sess.model.Store(flat)
	j.sess.installMu.Unlock()
	// Announce after installMu is released: the event path runs arbitrary
	// sink code and a channel send, and nothing downstream needs the
	// lock — cluster routers max-merge announced versions and the
	// replicator re-reads the latest checkpoint per push, so announcement
	// order across racing retrains is immaterial.
	l.srv.hub.emit(Event{Kind: EventModelUpdated, Patient: j.sess.id, Version: version})
	return nil
}

// selfLabeledSet builds a balanced window training set from the labeled
// interval [pos, pos+w): every in-window row is a positive; negatives
// are subsampled from the rest of the buffer at a stride that yields
// roughly three negatives per positive (the buffered hour is almost
// entirely interictal — training on all of it would drown the seizure
// class).
func selfLabeledSet(rows [][]float64, pos, w int) (X [][]float64, y []bool) {
	for i := pos; i < pos+w && i < len(rows); i++ {
		X = append(X, rows[i])
		y = append(y, true)
	}
	nNeg := len(rows) - w
	stride := 1
	if want := 3 * w; want > 0 && nNeg > want {
		stride = nNeg / want
	}
	for i := 0; i < len(rows); i += stride {
		if i >= pos && i < pos+w {
			continue
		}
		X = append(X, rows[i])
		y = append(y, false)
	}
	return X, y
}
