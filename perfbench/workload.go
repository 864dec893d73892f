package main

import (
	"sort"
	"strings"
	"time"

	"selflearn/internal/rt"
	"selflearn/internal/serve"
)

// workload is one traffic mix the benchmark drives.
type workload struct {
	name  string
	fleet bool // through cluster.Router to two shardd processes
	edge  bool // serve.PrefilterClient gates every second on the device side
	learn bool // patients start untrained and confirm seizures
	// patients streams run at rate Hz; each streams its first prime
	// seconds during set-up.
	patients int
	rate     float64
	prime    int
	// history is the feature history each session buffers for retraining.
	history time.Duration
	// sentinelEvery makes every n-th patient stream seizure-dense signal
	// (0 = none), so alarms sample every position in a tick's burst.
	sentinelEvery int
}

// Self-learning buffers 15 minutes, not the paper's hour. Its set-up
// fills the buffer at full speed on both cores, and filling an hour took
// 5-8 s whose length followed the host's speed under sustained load: two
// sets of ten runs of unchanged code differed by 31 % in median. Its
// recordings repeat every 15 minutes, so an hour's buffer held the same
// seizure four times and 15 minutes hold it once.
var workloads = map[string]workload{
	"ward-local":    {name: "ward-local", patients: 512, rate: 256, prime: 4, history: time.Hour, sentinelEvery: 4},
	"ward-fleet":    {name: "ward-fleet", fleet: true, patients: 512, rate: 256, prime: 4, history: time.Hour, sentinelEvery: 4},
	"edge-fleet":    {name: "edge-fleet", fleet: true, edge: true, patients: 512, rate: 256, prime: 20, history: time.Hour, sentinelEvery: 16},
	"self-learning": {name: "self-learning", learn: true, patients: 128, rate: 128, prime: 900, history: 15 * time.Minute},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

const (
	// tick is the generator's fixed schedule: every tick pushes each
	// patient's next second, 10x real time. At 80 ms ward-fleet's p99
	// alarm latency reached half a tick.
	tick = 100 * time.Millisecond
	// lateLimit is how late the generator may start a tick before the
	// tick's segment is left out of every time metric.
	lateLimit = tick / 5
	// pollEvery is how often a wait for the system samples its counters.
	pollEvery = 2 * time.Millisecond
	// windowSeconds is the feature window: window k spans stream seconds
	// k..k+3 and completes when second k+3 arrives (1 s hop).
	windowSeconds = 4
	// queueDepth sizes every worker, shard and router queue.
	queueDepth = 1024
	avgSeizure = 30 * time.Second
	// refractory is short so a seizure-dense sentinel alarms on every
	// window of a seizure once three of five vote positive.
	refractory = time.Second
	// waitLimit bounds every wait for the system to catch up.
	waitLimit = 90 * time.Second
	// setups is how many times an untraced run brings the system up;
	// setup_s is the median, and the last set-up is measured.
	setups = 3
	// tailQuantile is the latency tail reported as latency_tail_ms. A
	// run's p99 is set by its one or two slowest ticks and moved 20-50 %
	// between runs of unchanged code; p90 spans a tenth of all ticks. The
	// one confirm per tick on self-learning also leaves ten samples beyond
	// p90 only. The result's detail line still records p99.
	tailQuantile = 0.9
)

func alarmConfig() rt.Config {
	c := rt.DefaultConfig()
	c.Refractory = refractory
	return c
}

// prefilterConfig is the edge gate of the prefilter-uplink scenario arm.
func prefilterConfig() serve.PrefilterConfig {
	return serve.PrefilterConfig{Gate: rt.GateConfig{Factor: 2.5, HistoryWindows: 32}, AuditEvery: 128}
}

func serveConfig(w workload) serve.Config {
	return serve.Config{
		Workers:            2,
		QueueDepth:         queueDepth,
		SampleRate:         w.rate,
		History:            w.history,
		AvgSeizureDuration: avgSeizure,
		AlarmCfg:           alarmConfig(),
	}
}

// completed is the number of windows n ingested seconds complete.
func completed(n int) int {
	return max(0, n-windowSeconds+1)
}
