package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func readResult(path string) (*result, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// verdict applies one metric's bound to a baseline and a candidate, by the
// rule of the choosing-metrics guide: the candidate's median may be worse
// than the baseline's by at most the bound, and where either side's own
// run-to-run spread is wider than the bound the pair is unresolved, unless
// every candidate run is on one side of every baseline run.
func verdict(d metricDef, base, cand []float64) string {
	worseBy := func(b, c float64) float64 { // positive when c is worse than b
		if d.Better == "higher" {
			return b - c
		}
		return c - b
	}
	mb, mc := median(base), median(cand)
	allowed := math.Max(d.Bound*math.Abs(mb), d.Floor)
	worse := worseBy(mb, mc) > allowed

	// Every candidate run at least as good as every baseline run, or every
	// one beyond the bound: the spread cannot change the answer.
	bestBase, worstBase := slices.Min(base), slices.Max(base)
	bestCand, worstCand := slices.Min(cand), slices.Max(cand)
	if d.Better == "higher" {
		bestBase, worstBase, bestCand, worstCand = worstBase, bestBase, worstCand, bestCand
	}
	if worseBy(bestBase, worstCand) <= 0 {
		return "ok"
	}
	if worseBy(worstBase, bestCand) > allowed {
		return "worse"
	}
	iqr := func(xs []float64) float64 { q1, q3 := quartiles(xs); return q3 - q1 }
	if math.Max(iqr(base), iqr(cand)) > allowed {
		return "unresolved"
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and exits
// non-zero if any is worse or a run failed its checks. When both files ran
// the same seed and sizes it also says whether the fingerprints agree: a
// change that only makes the simulator faster must not move them.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *result
		if b, err = readResult(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(a, b *result, out io.Writer) int {
	sameInputs := a.Manifest.Seed == b.Manifest.Seed && a.Manifest.Scale == b.Manifest.Scale &&
		a.Manifest.Seconds == b.Manifest.Seconds
	code := 0
	fmt.Fprintf(out, "%-14s %-16s %14s %14s %8s  %s\n", "workload", "metric", "baseline", "candidate", "change", "verdict")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadResult) bool { return w.Name == wa.Name })
		if i < 0 {
			fmt.Fprintf(out, "%-14s missing from the candidate\n", wa.Name)
			code = 1
			continue
		}
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, sa.Values, sb.Values)
			if v == "worse" {
				code = 1
			}
			change := 0.0
			if sa.Median != 0 {
				change = (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %+7.1f%%  %s\n", wa.Name, d.Name, sa.Median, sb.Median, change*100, v)
		}
		switch {
		case !wa.Correct || !wb.Correct:
			fmt.Fprintf(out, "%-14s a run failed its correctness checks\n", wa.Name)
			code = 1
		case sameInputs && wa.Fingerprint != wb.Fingerprint:
			fmt.Fprintf(out, "%-14s fingerprint %s became %s: simulated results moved\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
		case sameInputs:
			fmt.Fprintf(out, "%-14s fingerprint %s identical\n", wa.Name, wa.Fingerprint)
		}
	}
	return code
}
