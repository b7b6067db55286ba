// Command bench is the repository's benchmark: five workloads that drive the
// simulator from outside through its layers' public functions, seven
// end-to-end metrics and a per-layer trace. BENCHMARK.json at the repository
// root names it; README.md in this directory explains it.
//
//	go run ./bench                                   every workload, 3 untraced runs + 1 traced, medians
//	go run ./bench -workload ctl1m_loop -seconds 10  one untraced run, in this process
//	go run ./bench -compare a.json b.json            apply the bounds to two result files
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ref      bool
	runs     int
	scale    string
	procs    int
	out      string
}

// childEnv marks a process the benchmark started itself. The test binary
// looks for it to play the part of the benchmark binary.
const childEnv = "AMPERE_BENCH_CHILD"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every simulated input is derived from")
	fs.IntVar(&o.seconds, "seconds", 0, "run one workload once in this process, with a window sized for this many seconds")
	fs.IntVar(&trace, "trace", 0, "with -seconds: 1 times every layer boundary and reports the per-layer metrics")
	fs.BoolVar(&o.ref, "ref", false, "with -seconds: the untraced reference a traced run compares itself with (one set-up)")
	fs.IntVar(&o.runs, "runs", 3, "untraced runs per workload; one traced run is added")
	fs.StringVar(&o.scale, "scale", "full", "full or smoke (tiny fleets, for tests)")
	fs.IntVar(&o.procs, "procs", min(runtime.NumCPU(), 4), "GOMAXPROCS of every run")
	fs.StringVar(&o.out, "out", "bench-result.json", "result file the suite writes")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.scale != "full" && o.scale != "smoke" || o.procs < 1 || o.runs < 1 || o.seconds < 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "bench: -scale is full or smoke, -trace 0 or 1, -procs and -runs at least 1")
		return 2
	}

	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.seconds > 0:
		return runSingle(o, stdout, stderr)
	default:
		o.seconds = runSeconds
		return runSuite(o, stdout, stderr)
	}
}

// runSingle is the driver's contract: one workload, one run, this process.
// A traced run first has a child make the untraced reference it is compared
// with, so its fingerprint check and its overhead need nothing from outside.
func runSingle(o options, stdout, stderr io.Writer) int {
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(o.procs)
	var ref *record
	if o.trace {
		refOpts := o
		refOpts.trace, refOpts.ref = false, true
		ref = spawn(refOpts, stderr)
	}
	r := runOne(w, o, ref)
	if err := r.write(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload once in a fresh child process, so heap and GC
// state are per run, and returns its record. A child that crashes or prints
// no record yields a record that says so: a crash is a failed run, not a
// missing one.
func spawn(o options, stderr io.Writer) *record {
	failed := func(err error) *record {
		return &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Error: err.Error(),
			Ops: 1, OpsFailed: 1, Checks: []check{{Name: "child_process", Detail: err.Error()}}}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	args := []string{
		"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-scale", o.scale, "-procs", strconv.Itoa(o.procs), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
	}
	if o.ref {
		args = append(args, "-ref")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	for _, line := range bytes.Split(out, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(recordPrefix)); ok {
			var r record
			if err := json.Unmarshal(rest, &r); err != nil {
				return failed(fmt.Errorf("child record: %w", err))
			}
			return &r
		}
	}
	if runErr == nil {
		runErr = errors.New("child printed no record")
	}
	return failed(fmt.Errorf("%s: %w: %s", strings.Join(args, " "), runErr, lastLine(out)))
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}
