// Command perfbench is the repository's end-to-end benchmark. It brings
// up the serving system — an in-process serve.Server, or a
// cluster.Router in front of two shardd processes — drives one seeded
// workload from a single generator goroutine on a fixed tick, checks
// every alarm, window count and model publish against a single-goroutine
// reference replay of the same inputs, and prints one JSON result as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload ward-local --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it runs the workload once untraced and once traced,
// replays the traced run's inputs through each layer's public functions
// with spans on, and reports per-layer costs instead. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	shardd := flag.String("shardd", "", "shardd binary, for the fleet workloads")
	work := flag.String("work", ".bench_build/work", "directory for checkpoints, span files and results")
	flag.Parse()

	w, ok := workloads[*name]
	switch {
	case !ok:
		return usage("unknown -workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1:
		return usage("-seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return usage("-trace %d: want 0 or 1", *trace)
	case w.fleet && *shardd == "":
		return usage("workload %s needs -shardd", w.name)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := &runConfig{
		w:      w,
		seed:   *seed,
		ticks:  int(time.Duration(*seconds) * time.Second / tick),
		shardd: *shardd,
		dir:    dir,
		traces: filepath.Join(*work, "traces"),
	}
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res.detail); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res.line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the result line and the line before it, which records how
// the run went: generator lateness per tick, nproc, GOMAXPROCS, failure
// kinds and the workload's own figures.
type result struct {
	detail map[string]any
	line   resultLine
}

// prepare generates the run's inputs: the recording pool and, for the
// workloads that start trained, every patient's checkpoint. None of it
// counts as set-up.
func prepare(rc *runConfig) (*inputs, error) {
	in, err := buildInputs(rc.w, rc.seed)
	if err != nil {
		return nil, err
	}
	if !rc.w.learn {
		in.ckptDir = filepath.Join(rc.dir, "checkpoints")
		if err := writeCheckpoints(in, in.ckptDir); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// setupTime is one set-up's duration in seconds, as measured and scaled
// to the reference host.
type setupTime struct{ raw, scaled float64 }

// once brings the system up, measures one timed phase and checks the
// system's outputs against the replay. n numbers the run's set-ups, so
// each self-learning set-up gets a store of its own. The system is
// released before once returns, so a kept run holds no serving memory
// while a later one is measured.
func once(rc *runConfig, in *inputs, n int, traced bool) (*runState, *replayer, setupTime, error) {
	var st setupTime
	// Collect input generation's and earlier set-ups' garbage now, so the
	// measured system never pays for it.
	debug.FreeOSMemory()
	r, err := newRunState(rc, in, n, traced)
	if err != nil {
		return nil, nil, st, err
	}
	if st.raw, st.scaled, err = r.setUp(); err != nil {
		return nil, nil, st, err
	}
	if err := r.measure(); err != nil {
		return nil, nil, st, err
	}
	x, err := newReplayer(r, traced)
	if err != nil {
		return nil, nil, st, err
	}
	if err := r.verify(x); err != nil {
		return nil, nil, st, err
	}
	r.sys = nil
	return r, x, st, nil
}

// timeSetUp times one set-up for setup_s's median and stops the system.
func timeSetUp(rc *runConfig, in *inputs, n int) (setupTime, error) {
	var st setupTime
	debug.FreeOSMemory()
	r, err := newRunState(rc, in, n, false)
	if err != nil {
		return st, err
	}
	if st.raw, st.scaled, err = r.setUp(); err != nil {
		return st, err
	}
	return st, r.sys.close()
}

// runUntraced times setups set-ups, measures the timed phase on the
// last, and reports the end-to-end metrics, each time metric scaled to
// the reference host: setup_s is the median set-up; CPU comes from the
// timed phase's valid segments and latency from their calm ticks.
func runUntraced(rc *runConfig) (*result, error) {
	in, err := prepare(rc)
	if err != nil {
		return nil, err
	}
	var raw, scaled []float64
	for i := 0; i < setups-1; i++ {
		st, err := timeSetUp(rc, in, i)
		if err != nil {
			return nil, err
		}
		raw, scaled = append(raw, st.raw), append(scaled, st.scaled)
	}
	r, _, st, err := once(rc, in, setups-1, false)
	if err != nil {
		return nil, err
	}
	return r.untracedResult(append(raw, st.raw), append(scaled, st.scaled))
}

// untracedResult reports a measured run's end-to-end metrics, given the
// run's set-up times.
func (r *runState) untracedResult(setupRaw, setupScaled []float64) (*result, error) {
	all := r.segments()
	segs := valid(all)
	if len(segs) == 0 {
		return nil, fmt.Errorf("the generator started a tick more than %v late in every segment", lateLimit)
	}
	lat, calm := r.scaledLatencies(segs)
	if beyond(len(lat), tailQuantile) < minBeyond {
		r.fail("too few latency samples for the tail quantile")
	}
	ps := r.patientSeconds()
	setup := append([]float64(nil), setupScaled...)
	sort.Float64s(setup)
	m := map[string]metric{
		"setup_s":                    {quantile(setup, 0.5), "s"},
		"cpu_us_per_patient_s":       {scaledCPU(segs), "us"},
		"mem_mb":                     {float64(r.mem) / (1 << 20), "MB"},
		"uplink_bytes_per_patient_s": {float64(r.uplink) / ps, "B"},
		"latency_p50_ms":             {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":            {quantile(lat, tailQuantile), "ms"},
	}
	rawLat := r.latencies()
	perSeg := make([]map[string]any, len(all))
	for k, s := range all {
		perSeg[k] = map[string]any{"cpu_us_per_patient_s": s.cpu, "probe_us": s.probe, "late": s.late}
	}
	rawSetup := append([]float64(nil), setupRaw...)
	sort.Float64s(rawSetup)
	stolen := make([]uint64, r.ticks)
	for t := range stolen {
		stolen[t] = r.stolen(t)
	}
	return r.result(m, map[string]any{
		"setups_s":              setupRaw,
		"setups_scaled_s":       setupScaled,
		"segments":              perSeg,
		"valid_segments":        len(segs),
		"stolen_per_tick":       stolen,
		"calm_ticks":            calm,
		"latency_samples":       len(lat),
		"scaled_latency_p99_ms": quantile(lat, 0.99),
		"raw": map[string]float64{
			"setup_s":              quantile(rawSetup, 0.5),
			"cpu_us_per_patient_s": r.cpu.Seconds() * 1e6 / ps,
			"latency_p50_ms":       quantile(rawLat, 0.5),
			"latency_p90_ms":       quantile(rawLat, 0.9),
			"latency_p99_ms":       quantile(rawLat, 0.99),
			"latency_max_ms":       quantile(rawLat, 1),
		},
		"timed_s":          float64(r.ticks) * tick.Seconds(),
		"patient_seconds":  ps,
		"windows":          r.final.Windows,
		"alarms":           r.final.Alarms,
		"retrains":         r.final.Retrains,
		"suppressed":       r.final.WindowsSuppressed,
		"audit_samples":    r.final.AuditSamples,
		"uplink_bytes":     r.uplink,
		"system_cpu_s":     r.cpu.Seconds(),
		"peak_rss_bytes":   r.mem,
		"event_records":    len(r.log.events()),
		"event_records_of": len(r.log.recs),
	}), nil
}

// runTraced measures the workload untraced, then again with spans on,
// and replays the traced run's inputs through each layer. The span file
// and the layer rows go to rc.traces; the result carries the per-layer
// metrics and the tracing overhead. The layer rows are raw, not scaled
// to the reference host: per-layer metrics have no bound.
func runTraced(rc *runConfig) (*result, error) {
	in, err := prepare(rc)
	if err != nil {
		return nil, err
	}
	base, _, _, err := once(rc, in, 0, false)
	if err != nil {
		return nil, err
	}
	r, x, _, err := once(rc, in, 1, true)
	if err != nil {
		return nil, err
	}
	allocs, err := x.featureAllocs()
	if err != nil {
		return nil, err
	}
	for _, e := range r.log.events() {
		r.tr.add(spEvent, spanID(int(e.patient), completingSecond(e.stream)), -1, e.at, e.at)
	}
	rows := r.layerRows(x)
	untraced := base.cpu.Seconds() * 1e6 / base.patientSeconds()
	// The two runs met the host at different speeds; the overhead compares
	// their CPU scaled to the reference host.
	var overhead float64
	if b := scaledCPU(valid(base.segments())); b > 0 {
		overhead = scaledCPU(valid(r.segments()))/b - 1
	}
	m := r.layerMetrics(x, rows, untraced, overhead, allocs)

	if err := os.MkdirAll(rc.traces, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(rc.traces, fmt.Sprintf("%s-seed%d", rc.w.name, rc.seed))
	if err := r.tr.write(stem + ".spans.csv"); err != nil {
		return nil, err
	}
	report, err := json.MarshalIndent(map[string]any{
		"workload":                      rc.w.name,
		"seed":                          rc.seed,
		"layers":                        rows,
		"features_children_exceed_self": x.childrenExceedParent(),
		"retrain_replays":               x.retrains,
		"retrain_replays_identical":     x.retrainsSame,
		"unattributed.us_per_patient_s": m["unattributed.us_per_patient_s"].Value,
		"cpu_us_per_patient_s":          m["trace.cpu_us_per_patient_s"].Value,
		"untraced_cpu_us_per_patient_s": untraced,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".layers.json", append(report, '\n'), 0o644); err != nil {
		return nil, err
	}
	printRows(rows, m)
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s.spans.csv (%d kept, %d dropped), rows in %s.layers.json\n",
		stem, len(r.tr.spans), r.tr.dropped, stem)

	r.attempted += base.attempted
	for k, n := range base.failures {
		r.failures[k] += n
	}
	r.late = append(r.late, base.late...)
	return r.result(m, map[string]any{
		"spans":                         len(r.tr.spans),
		"spans_dropped":                 r.tr.dropped,
		"features_children_exceed_self": x.childrenExceedParent(),
		"retrain_replays":               x.retrains,
		"retrain_replays_identical":     x.retrainsSame,
	}), nil
}

func printRows(rows []layerRow, m map[string]metric) {
	fmt.Fprintf(os.Stderr, "%-16s %10s %12s %12s %16s\n", "layer", "count", "us/unit", "timed units", "us/patient-s")
	for _, row := range rows {
		fmt.Fprintf(os.Stderr, "%-16s %10d %12.3f %12d %16.3f\n", row.Layer, row.Count, row.USPerUnit, row.TimedUnits, row.USPerPatientS)
	}
	fmt.Fprintf(os.Stderr, "%-16s %10s %12s %12s %16.3f\n", "unattributed", "", "", "", m["unattributed.us_per_patient_s"].Value)
	fmt.Fprintf(os.Stderr, "%-16s %10s %12s %12s %16.3f\n", "traced cpu", "", "", "", m["trace.cpu_us_per_patient_s"].Value)
	fmt.Fprintf(os.Stderr, "%-16s %10s %12s %12s %16.3f\n", "untraced cpu", "", "", "", m["trace.untraced_cpu_us_per_patient_s"].Value)
}

// result assembles the output; correct speaks for the system's outputs.
func (r *runState) result(m map[string]metric, extra map[string]any) *result {
	late := make([]float64, len(r.late))
	var worst float64
	for i, ns := range r.late {
		late[i] = ms(ns)
		worst = max(worst, late[i])
	}
	failed := r.failed()
	detail := map[string]any{
		"workload":    r.in.w.name,
		"seed":        r.rc.seed,
		"ticks":       r.ticks,
		"tick_ms":     ms(int64(tick)),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"late_ticks":  r.lateTicks(),
		"late_max_ms": worst,
		"late_ms":     late,
		"steal_share": r.steal,
		"failures":    r.failures,
	}
	for k, v := range extra {
		detail[k] = v
	}
	return &result{detail: detail, line: resultLine{
		Correct:   failed == 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   m,
	}}
}
