// Command benchcmp judges the CI performance gate: the perfbench runs
// .github/perfgate.sh made of a base commit and of the head, against
// the end-to-end metrics, directions and bounds BENCHMARK.json declares.
//
//	benchcmp BENCHMARK.json DIR
//
// DIR holds W.base.N.json and W.head.N.json, the result line perfbench
// printed for workload W in pair N = 0, 1, .... The gate fails on a
// missing or unparsable run file, on a run that failed perfbench's
// reference check (correct:false or failed>0), on a workload with no
// runs, and on a metric whose head median is worse than base's by more
// than its bound. When base's own spread (the distance between its
// quartiles over its median) exceeds the bound, the runs cannot tell a
// regression from noise: the row is printed as unresolved and does not
// fail. This is the no-regression rule each change is accepted under.
// A change that adds a workload or an end-to-end metric fails the gate,
// as its base has no runs of it to compare against.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative worsening
}

// result is perfbench's result line.
type result struct {
	Correct bool   `json:"correct"`
	Failed  uint64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

var sides = [2]string{"base", "head"}

// runs holds one workload's results per side, base first, in pair order.
type runs [2][]result

// row is one workload × metric verdict.
type row struct {
	workload, metric, unit string
	base, head             float64 // medians
	worse                  float64 // head's relative change in the worse direction
	spread                 float64 // base's quartile distance over its median
	verdict                string  // "ok", "FAIL" or "unresolved"
}

func run(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp BENCHMARK.json DIR")
		return 2
	}
	var s spec
	data, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", args[0], err)
		return 2
	}
	byWorkload, fails := load(args[1], s)
	rows, judged := judge(s, byWorkload)
	fails = append(fails, judged...)

	fmt.Fprintf(out, "%-14s %-27s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "head", "change", "spread", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %-27s %12s %12s %+7.1f%% %6.1f%%  %s\n", r.workload, r.metric,
			fmt.Sprintf("%.5g %s", r.base, r.unit), fmt.Sprintf("%.5g %s", r.head, r.unit), 100*r.worse, 100*r.spread, r.verdict)
		if r.verdict == "FAIL" {
			regressed++
		}
	}
	for _, f := range fails {
		fmt.Fprintln(out, "FAIL", f)
	}
	if regressed > 0 || len(fails) > 0 {
		fmt.Fprintf(out, "benchcmp: gate failed: %d metric(s) regressed, %d run problem(s)\n", regressed, len(fails))
		return 1
	}
	fmt.Fprintln(out, "benchcmp: gate passed")
	return 0
}

// load reads each workload's pairs from DIR until neither side has the
// next one, so a pair with one side missing is reported.
func load(dir string, s spec) (map[string]runs, []string) {
	var fails []string
	byWorkload := map[string]runs{}
	for _, w := range s.Workloads {
		var rs runs
		for n := 0; ; n++ {
			var missing []string
			for i, side := range sides {
				name := fmt.Sprintf("%s.%s.%d.json", w.Name, side, n)
				data, err := os.ReadFile(filepath.Join(dir, name))
				if errors.Is(err, os.ErrNotExist) {
					missing = append(missing, name)
					continue
				}
				var r result
				if err == nil {
					err = json.Unmarshal(data, &r)
				}
				if err == nil && r.Metrics == nil {
					err = errors.New("not a perfbench result line")
				}
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s: unparsable: %v", name, err))
					continue
				}
				rs[i] = append(rs[i], r)
			}
			if len(missing) == len(sides) {
				break
			}
			for _, name := range missing {
				fails = append(fails, name+": missing")
			}
		}
		byWorkload[w.Name] = rs
	}
	return byWorkload, fails
}

// judge applies the gate to parsed runs. It returns one row per
// workload × end-to-end metric and every reason the gate fails besides
// a regressed row: a side with no runs, a run that failed its reference
// check, or a metric some run did not report.
func judge(s spec, byWorkload map[string]runs) ([]row, []string) {
	var rows []row
	var fails []string
	for _, w := range s.Workloads {
		rs := byWorkload[w.Name]
		if len(rs[0]) == 0 || len(rs[1]) == 0 {
			fails = append(fails, fmt.Sprintf("%s: %d base and %d head runs, want both sides", w.Name, len(rs[0]), len(rs[1])))
			continue
		}
		for i, side := range sides {
			for n, r := range rs[i] {
				if !r.Correct || r.Failed > 0 {
					fails = append(fails, fmt.Sprintf("%s: %s run %d: correct:%t failed:%d", w.Name, side, n, r.Correct, r.Failed))
				}
			}
		}
	metrics:
		for _, m := range s.EndToEnd {
			var vs [2][]float64
			for i := range sides {
				for _, r := range rs[i] {
					v, ok := r.Metrics[m.Name]
					if !ok {
						fails = append(fails, fmt.Sprintf("%s: %s missing from a %s run", w.Name, m.Name, sides[i]))
						continue metrics
					}
					vs[i] = append(vs[i], v.Value)
				}
			}
			r := verdict(m, vs[0], vs[1])
			r.workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows, fails
}

// verdict judges one metric from both sides' values. A base median of
// zero makes any change infinite, and no change NaN, which passes.
func verdict(m metricSpec, base, head []float64) row {
	r := row{metric: m.Name, unit: m.Unit, base: median(base), head: median(head)}
	r.spread = (quantile(base, 0.75) - quantile(base, 0.25)) / r.base
	r.worse = (r.head - r.base) / r.base
	if m.Better == "higher" {
		r.worse = -r.worse
	}
	switch {
	case r.spread > m.Bound:
		r.verdict = "unresolved"
	case r.worse > m.Bound:
		r.verdict = "FAIL"
	default:
		r.verdict = "ok"
	}
	return r
}

// median of a non-empty slice; averages the middle pair on even length.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile of a non-empty slice, interpolating linearly between order
// statistics, so quantile(xs, 0.5) is the median.
func quantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
