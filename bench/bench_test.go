package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// benchmark re-executes itself for every run, and under go test "itself" is
// this file's binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeSuite runs every workload end to end at smoke scale, traced run
// and its reference child included, and holds the result file to what the
// README promises of it.
func TestSmokeSuite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-runs", "2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("suite exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.GoVersion == "" || res.Manifest.NumCPU < 1 || res.Manifest.Commit == "" || res.Manifest.Scale != "smoke" {
		t.Errorf("incomplete manifest: %+v", res.Manifest)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if !w.Correct {
			t.Errorf("%s: not correct", w.Name)
		}
		if len(w.Runs) != 3 || !w.Runs[2].Trace || len(w.Runs[2].Spans) == 0 {
			t.Errorf("%s: want two untraced runs and a traced run with spans", w.Name)
		}
		for _, d := range endToEnd {
			s, ok := w.EndToEnd[d.Name]
			if !ok || s.N != 2 || s.Unit != d.Unit || !(s.Median > 0 || d.Simulated && s.Median == 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive median of 2", w.Name, d.Name, s)
			}
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("suite output does not print %s", d.Name)
			}
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		if w.PerLayer["trace.fingerprint_match"].Value != 1 {
			t.Errorf("%s: traced run did not reproduce its untraced reference", w.Name)
		}
	}
	if code := compareFiles(out, out, io.Discard, io.Discard); code != 0 {
		t.Errorf("a result file compared with itself exits %d", code)
	}
}

// TestSingleRunContract checks the line the driver reads.
func TestSingleRunContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "ctl1m_loop", "--seed", "2", "--seconds", "1", "--trace", trace, "-scale", "smoke"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", got)
		}
		var metrics map[string]value
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want, traced := driverTables()
		if trace == "1" {
			want = traced
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.Name, m)
			}
		}
	}
	if code := run([]string{"-workload", "nope", "-seconds", "1"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the tables in metrics.go
// and workloads.go to each other, both ways and in order.
func TestBenchmarkJSONAgrees(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the suite runs %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	untraced, traced := driverTables()
	if len(b.EndToEnd) != len(untraced) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d emitted", len(b.EndToEnd), len(untraced))
	}
	for i, d := range untraced {
		got := b.EndToEnd[i]
		if got.Bound == nil || got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || *got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, emitted %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(traced) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d emitted", len(b.PerLayer), len(traced))
	}
	for i, d := range traced {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, emitted %+v", i, got, d)
		}
	}
}

// TestNamesAndLimits holds the tables to the driver's limits.
func TestNamesAndLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: limits are 2-8, 1-16, 1-128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	untraced, traced := driverTables()
	if len(untraced) > 16 || len(traced) > 128 {
		t.Errorf("the driver gets %d end-to-end and %d per-layer metrics: limits are 16 and 128", len(untraced), len(traced))
	}
	for _, d := range untraced {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the driver needs setup_s in s, lower is better; have %+v", d)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	floor := metricDef{Name: "setup", Better: "lower", Bound: 0.25, Floor: 0.5}
	for _, c := range []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{lower, []float64{100, 101, 102}, []float64{103, 104, 105}, "ok"},
		{lower, []float64{100, 101, 102}, []float64{115, 116, 117}, "worse"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "ok"},
		{lower, []float64{90, 100, 125}, []float64{95, 104, 112}, "unresolved"},
		{lower, []float64{90, 100, 125}, []float64{60, 70, 80}, "ok"},
		{lower, []float64{90, 100, 125}, []float64{150, 160, 170}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{85, 86, 87}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{95, 96, 97}, "ok"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "ok"},
		{floor, []float64{0.30, 0.31, 0.32}, []float64{0.50, 0.52, 0.55}, "ok"},
		{floor, []float64{8.0, 8.1, 8.2}, []float64{10.5, 10.6, 10.7}, "worse"},
	} {
		if got := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.cand, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
