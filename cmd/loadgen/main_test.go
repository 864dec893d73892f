package main

import (
	"net"
	"testing"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/scenario"
	"selflearn/internal/serve"
)

type testShard struct {
	srv *serve.Server
	ss  *cluster.ShardServer
}

func startShard(t *testing.T, rate float64) *testShard {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Workers:            1,
		SampleRate:         rate,
		History:            2 * time.Minute,
		AvgSeizureDuration: 20 * time.Second,
	}, serve.WithAdmission(serve.BlockWithDeadline(0)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &testShard{srv: srv, ss: cluster.Serve(srv, ln, cluster.Options{})}
}

func (ts *testShard) stop() {
	ts.ss.Close()
	ts.srv.Close()
}

// TestRunSurvivesShardLoss: a drop-admission replay against two shards
// must finish cleanly after the shard that did the most retrains dies
// mid-replay — its Retrains counter leaves the fleet snapshot with it,
// so retrain evidence has to come from the observed model versions —
// and report every patient trained.
func TestRunSurvivesShardLoss(t *testing.T) {
	w, err := scenario.Build(scenario.Spec{
		Name:      "shard-loss",
		Seed:      5,
		Patients:  4,
		Duration:  90,
		Seizures:  scenario.Seizures{Count: 1, First: 20, Duration: 20},
		Admission: "drop",
		Confirm:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paced so patients are still streaming when the shard dies: the
	// confirm lands at second 50 (~1.3 s in), the replay ends at ~2.3 s.
	w.Speed = 40

	shards := []*testShard{startShard(t, w.SampleRate), startShard(t, w.SampleRate)}
	for _, s := range shards {
		defer s.stop() // idempotent: the victim is stopped early below
	}
	r, err := cluster.Dial([]string{shards[0].ss.Addr().String(), shards[1].ss.Addr().String()},
		cluster.Options{Admission: serve.DropOnFull()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c := scenario.NewCollector()
	killed := make(chan int, 1)
	go func() {
		for _, ps := range w.Streams {
			if err := c.WaitVersion(ps.ID, 1, 30*time.Second); err != nil {
				killed <- -1
				return
			}
		}
		victim := 0
		if shards[1].srv.Snapshot().Retrains > shards[0].srv.Snapshot().Retrains {
			victim = 1
		}
		shards[victim].stop()
		killed <- victim
	}()

	res, err := runRouted(w, c, r)
	victim := <-killed
	if err != nil {
		t.Fatalf("run with a dead shard: %v", err)
	}
	if victim < 0 {
		t.Fatal("patients never trained; no shard was stopped")
	}
	if len(res.ModelVersions) != len(w.Streams) {
		t.Fatalf("model_versions = %v, want all %d patients", res.ModelVersions, len(w.Streams))
	}
	for _, ps := range w.Streams {
		if res.ModelVersions[ps.ID] < 1 {
			t.Fatalf("%s untrained: model_versions = %v", ps.ID, res.ModelVersions)
		}
	}
	if res.Retrains < uint64(len(w.Streams)) {
		t.Fatalf("retrains = %d, want >= %d", res.Retrains, len(w.Streams))
	}
}
