package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 2}, 3},
		{[]float64{58300, 68700, 71000}, 68700}, // one noisy low run cannot drag the median
		{[]float64{1, 2, 3, 4}, 2.5},
	}
	for _, c := range cases {
		if got := median(append([]float64(nil), c.xs...)); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

var (
	cpu    = metricSpec{Name: "cpu_us_per_patient_s", Unit: "us", Better: "lower", Bound: 0.25}
	uplink = metricSpec{Name: "uplink_bytes_per_patient_s", Unit: "B", Better: "lower", Bound: 0.15}
)

func TestVerdict(t *testing.T) {
	cases := []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       string
	}{
		{"within bound", cpu, []float64{60, 62, 64}, []float64{70, 72, 74}, "ok"},
		{"better", cpu, []float64{60, 62, 64}, []float64{40, 41, 42}, "ok"},
		{"worse beyond bound, tight base", cpu, []float64{60, 62, 64}, []float64{90, 93, 96}, "FAIL"},
		// Quartiles 45 and 75 around a median of 60: a 50 % spread, over
		// the 25 % bound, so even a doubled head cannot be told from noise.
		{"worse beyond bound, noisy base", cpu, []float64{30, 60, 90}, []float64{120, 121, 122}, "unresolved"},
		{"equal zeros", uplink, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
		{"from zero", uplink, []float64{0, 0, 0}, []float64{1, 1, 1}, "FAIL"},
		{"higher is better, fell", metricSpec{Name: "rate", Better: "higher", Bound: 0.1}, []float64{100, 100, 100}, []float64{80, 80, 80}, "FAIL"},
		{"higher is better, rose", metricSpec{Name: "rate", Better: "higher", Bound: 0.1}, []float64{100, 100, 100}, []float64{150, 150, 150}, "ok"},
	}
	for _, c := range cases {
		r := verdict(c.m, c.base, c.head)
		if r.verdict != c.want {
			t.Errorf("%s: verdict %q (worse %+.3f, spread %.3f), want %q", c.name, r.verdict, r.worse, r.spread, c.want)
		}
	}
	r := verdict(cpu, []float64{64, 60, 62}, []float64{93, 96, 90})
	if r.base != 62 || r.head != 93 || r.worse != 0.5 || r.spread != 2.0/62 {
		t.Errorf("row = %+v, want medians 62 and 93, worse 0.5, spread 2/62", r)
	}
}

func mkResult(correct bool, failed uint64, cpuUS float64) result {
	var r result
	r.Correct, r.Failed = correct, failed
	r.Metrics = map[string]struct {
		Value float64 `json:"value"`
	}{cpu.Name: {cpuUS}}
	return r
}

func specOf(workloads ...string) spec {
	var s spec
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, struct {
			Name string `json:"name"`
		}{w})
	}
	s.EndToEnd = []metricSpec{cpu}
	return s
}

func TestJudgeRunProblems(t *testing.T) {
	good := []result{mkResult(true, 0, 60), mkResult(true, 0, 61), mkResult(true, 0, 62)}
	cases := []struct {
		name string
		rs   runs
		want string
	}{
		{"clean", runs{good, good}, ""},
		{"correct:false", runs{good, {mkResult(true, 0, 60), mkResult(false, 0, 61), mkResult(true, 0, 62)}}, "head run 1: correct:false failed:0"},
		{"failed>0", runs{{mkResult(true, 0, 60), mkResult(true, 0, 61), mkResult(true, 3, 62)}, good}, "base run 2: correct:true failed:3"},
		{"no head runs", runs{good, nil}, "3 base and 0 head runs"},
		{"no base runs", runs{nil, good}, "0 base and 3 head runs"},
	}
	for _, c := range cases {
		rows, fails := judge(specOf("w"), map[string]runs{"w": c.rs})
		got := strings.Join(fails, "; ")
		if c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Errorf("%s: fails %q, want one containing %q", c.name, got, c.want)
		}
		if c.rs[0] != nil && c.rs[1] != nil && len(rows) != 1 {
			t.Errorf("%s: %d rows, want 1", c.name, len(rows))
		}
	}
	if _, fails := judge(specOf("w", "absent"), map[string]runs{"w": {good, good}}); len(fails) != 1 || !strings.HasPrefix(fails[0], "absent:") {
		t.Errorf("workload without runs: fails %q, want one for absent", fails)
	}
}

// TestRunGate drives the command over run files as perfgate.sh writes
// them: the last stdout line of each perfbench run.
func TestRunGate(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCHMARK.json", `{"workloads": [{"name": "w"}], "end_to_end": [
		{"name": "cpu_us_per_patient_s", "unit": "us", "better": "lower", "bound": 0.25}]}`)
	runs := filepath.Join(dir, "runs")
	line := func(cpuUS float64) string {
		return fmt.Sprintf(`{"correct":true,"attempted":10,"failed":0,"metrics":{"cpu_us_per_patient_s":{"value":%g,"unit":"us"}}}`, cpuUS)
	}
	pairs := func(base, head [3]float64) {
		t.Helper()
		os.RemoveAll(runs)
		if err := os.Mkdir(runs, 0o755); err != nil {
			t.Fatal(err)
		}
		for n := range 3 {
			write(fmt.Sprintf("runs/w.base.%d.json", n), line(base[n]))
			write(fmt.Sprintf("runs/w.head.%d.json", n), line(head[n]))
			write(fmt.Sprintf("runs/w.head.%d.stderr", n), "perfbench log\n")
		}
	}
	gate := func(want int, wantOut string) {
		t.Helper()
		var out bytes.Buffer
		if code := run([]string{bench, runs}, &out); code != want || !strings.Contains(out.String(), wantOut) {
			t.Errorf("exit %d, want %d; output lacks %q:\n%s", code, want, wantOut, out.String())
		}
	}

	pairs([3]float64{60, 62, 64}, [3]float64{61, 63, 65})
	gate(0, "gate passed")
	pairs([3]float64{60, 62, 64}, [3]float64{90, 93, 96})
	gate(1, "FAIL\n")
	pairs([3]float64{30, 60, 90}, [3]float64{120, 121, 122})
	gate(0, "unresolved")

	pairs([3]float64{60, 62, 64}, [3]float64{61, 63, 65})
	os.Remove(filepath.Join(runs, "w.head.1.json"))
	gate(1, "w.head.1.json: missing")
	write("runs/w.head.1.json", "")
	gate(1, "w.head.1.json: unparsable")
	write("runs/w.head.1.json", `{"workload":"w","seed":1}`)
	gate(1, "not a perfbench result line")

	if code := run([]string{bench}, &bytes.Buffer{}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
