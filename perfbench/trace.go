package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Span names. Replay spans time one call into a layer; the system spans
// time the generator's own calls into the serving API and mark each
// event's receipt.
const (
	spFeatures uint8 = iota
	spSpectrum
	spWavelet
	spEntropy
	spForest
	spRT
	spEncode
	spDecode
	spPrefilter
	spLabel
	spTrain
	spSave
	spLoad
	spPush
	spConfirm
	spSnapshot
	spEvent
	numSpans
)

var spanNames = [numSpans]string{
	"features", "spectrum", "wavelet", "entropy", "forest", "rt",
	"wire.encode", "wire.decode", "prefilter", "core.label", "forest.train",
	"store.save", "store.load", "serve.push", "serve.confirm", "serve.snapshot", "event",
}

// span is one timed call. Spans of one patient-second, or of one
// confirm, share an id; parent indexes the enclosing span (-1: none).
type span struct {
	start, end int64
	id         int64
	parent     int32
	name       uint8
}

// tracer keeps every span in a preallocated slice; nothing is written
// until the run ends.
type tracer struct {
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index, or -1 once the
// preallocated storage is full.
func (t *tracer) add(name uint8, id int64, parent int32, start, end int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: start, end: end, id: id, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

// write dumps the spans as CSV: name, id, parent index, start and end
// in ns on the run clock.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns")
	var line []byte
	for _, s := range t.spans {
		line = append(line[:0], spanNames[s.name]...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.id, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one layer's share of the traced run's CPU per
// patient-second: its replayed cost per unit times the units the system
// handled in the timed phase.
type layerRow struct {
	Layer         string  `json:"layer"`
	Count         int64   `json:"count"`
	USPerUnit     float64 `json:"us_per_unit"`
	TimedUnits    int64   `json:"timed_units"`
	USPerPatientS float64 `json:"us_per_patient_s"`
}

// layerRows turns the replay into rows whose us_per_patient_s, plus the
// unattributed remainder, add up to the traced run's CPU per
// patient-second. The feature layer's row is its self time: the
// streamer's span minus its spectrum, wavelet and entropy children,
// which are re-run calls and so can exceed it (see childrenExceedParent).
func (r *runState) layerRows(x *replayer) []layerRow {
	L := &x.layers
	windows := L[spFeatures].timed
	if r.in.w.learn {
		// The replay covers only post-confirm windows, but every timed
		// second completed a window.
		windows = int64(len(r.in.ids) * r.ticks)
	}
	ps := r.patientSeconds()
	row := func(name string, n uint8, us float64, units int64) layerRow {
		return layerRow{Layer: name, Count: L[n].n, USPerUnit: us, TimedUnits: units, USPerPatientS: us * float64(units) / ps}
	}
	children := x.us(spSpectrum) + x.us(spWavelet) + x.us(spEntropy)
	return []layerRow{
		row("features (self)", spFeatures, max(0, x.us(spFeatures)-children), windows),
		row("spectrum", spSpectrum, x.us(spSpectrum), windows),
		row("wavelet", spWavelet, x.us(spWavelet), windows),
		row("entropy", spEntropy, x.us(spEntropy), windows),
		row("forest", spForest, x.us(spForest), L[spForest].timed),
		row("rt", spRT, x.us(spRT), windows),
		row("wire.encode", spEncode, x.us(spEncode), L[spEncode].timed),
		row("wire.decode", spDecode, x.us(spDecode), L[spDecode].timed),
		row("prefilter", spPrefilter, x.us(spPrefilter), L[spPrefilter].timed),
		row("core.label", spLabel, x.us(spLabel), L[spLabel].timed),
		row("forest.train", spTrain, x.us(spTrain), L[spTrain].timed),
		row("store.save", spSave, x.us(spSave), L[spSave].timed),
	}
}

// us is a layer's mean replayed cost per unit in µs.
func (x *replayer) us(n uint8) float64 {
	l := &x.layers[n]
	if l.n == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.n) / 1e3
}

func share(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics is the traced run's result: every per-layer metric, 0
// where the workload does not run the layer.
func (r *runState) layerMetrics(x *replayer, rows []layerRow, untraced, overhead, allocs float64) map[string]metric {
	var attributed float64
	for _, row := range rows {
		attributed += row.USPerPatientS
	}
	traced := r.cpu.Seconds() * 1e6 / r.patientSeconds()
	wait := make([]float64, len(r.pushWait))
	for i, ns := range r.pushWait {
		wait[i] = float64(ns) / 1e3
	}
	sort.Float64s(wait)
	sort.Float64s(r.backlog)
	var servePush, clusterPush float64
	if r.in.w.fleet {
		clusterPush = quantile(wait, 0.99)
	} else {
		servePush = quantile(wait, 0.99)
	}
	L := &x.layers
	return map[string]metric{
		"features.us_per_window":              {x.us(spFeatures), "us"},
		"features.allocs_per_window":          {allocs, "allocs"},
		"features.windows":                    {float64(L[spFeatures].n), "count"},
		"wavelet.us_per_window":               {x.us(spWavelet), "us"},
		"spectrum.us_per_window":              {x.us(spSpectrum), "us"},
		"entropy.us_per_window":               {x.us(spEntropy), "us"},
		"forest.us_per_window":                {x.us(spForest), "us"},
		"forest.quant_share":                  {share(x.quant, L[spForest].n), "ratio"},
		"forest.windows":                      {float64(L[spForest].n), "count"},
		"rt.us_per_window":                    {x.us(spRT), "us"},
		"serve.push_wait_us_p99":              {servePush, "us"},
		"serve.backlog_jobs_p99":              {quantile(r.backlog, 0.99), "jobs"},
		"cluster.push_wait_us_p99":            {clusterPush, "us"},
		"wire.encode_us_per_frame":            {x.us(spEncode), "us"},
		"wire.decode_us_per_frame":            {x.us(spDecode), "us"},
		"wire.bytes_per_frame":                {share(x.frameBytes, x.frames), "B"},
		"wire.pushq_share":                    {share(x.pushQ, x.pushFrames), "ratio"},
		"wire.frames":                         {float64(x.frames), "count"},
		"prefilter.us_per_patient_s":          {x.us(spPrefilter), "us"},
		"prefilter.ship_share":                {share(x.shipped, x.decisions), "ratio"},
		"prefilter.audit_share":               {share(x.audits, x.decisions), "ratio"},
		"core.label_ms":                       {x.us(spLabel) / 1e3, "ms"},
		"forest.train_ms":                     {x.us(spTrain) / 1e3, "ms"},
		"core.confirms":                       {float64(L[spLabel].n), "count"},
		"store.load_ms":                       {x.us(spLoad) / 1e3, "ms"},
		"store.loads":                         {float64(L[spLoad].n), "count"},
		"store.save_ms":                       {x.us(spSave) / 1e3, "ms"},
		"unattributed.us_per_patient_s":       {traced - attributed, "us"},
		"trace.cpu_us_per_patient_s":          {traced, "us"},
		"trace.untraced_cpu_us_per_patient_s": {untraced, "us"},
		"trace.overhead_share":                {overhead, "ratio"},
	}
}
