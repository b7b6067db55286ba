// Command ampere-load drives a running powermon daemon with open-loop HTTP
// traffic and reports per-endpoint tail latencies:
//
//	ampere-load -base http://localhost:9090 -rps 200 -duration 30s
//	ampere-load -base http://localhost:9090 -rps 500 -mix metrics=5,query=3,healthz=2
//
// The arrival process is Poisson at the configured aggregate rate, split
// across endpoints by the -mix weights, and open-loop: arrivals follow a
// pre-drawn absolute schedule, so a slow daemon faces queueing (and sheds
// drops at the in-flight limit) instead of silently throttling the offered
// load. Exit status is 1 when any request errored — suitable as a smoke
// gate for the serving path. See OPERATIONS.md §15.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/load"
)

// endpoints maps mix names onto powermon paths. query/latest hit the tsdb
// read path for the default dc series; the rest are the operational surface.
var endpoints = map[string]string{
	"metrics": "/metrics",
	"healthz": "/healthz",
	"status":  "/status",
	"domains": "/domains",
	"events":  "/events",
	"series":  "/series",
	"query":   "/query?name=dc&from=0",
	"latest":  "/latest?name=dc",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it drives the load args describe, writes the
// report to stdout and diagnostics to stderr, and returns the exit code (2 for
// a usage error, 1 when any request errored).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ampere-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base     = fs.String("base", "http://localhost:9090", "powermon base URL")
		rps      = fs.Float64("rps", 100, "aggregate open-loop arrival rate (req/s)")
		duration = fs.Duration("duration", 10*time.Second, "length of the arrival schedule")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		inflight = fs.Int("inflight", 512, "max concurrent requests (excess arrivals drop)")
		seed     = fs.Uint64("seed", 1, "arrival-schedule seed")
		mix      = fs.String("mix", "metrics=3,query=3,healthz=2,status=1,latest=1",
			"endpoint=weight list; endpoints: "+strings.Join(endpointNames(), ","))
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	targets, err := parseMix(*base, *mix)
	if err != nil {
		fmt.Fprintln(stderr, "ampere-load:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := load.Run(ctx, load.Config{
		Targets:     targets,
		RPS:         *rps,
		Duration:    *duration,
		Timeout:     *timeout,
		MaxInFlight: *inflight,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ampere-load:", err)
		return 2
	}
	fmt.Fprint(stdout, res.Format())
	for _, tr := range res.Targets {
		if tr.Errors > 0 {
			return 1
		}
	}
	return 0
}

func endpointNames() []string {
	names := make([]string, 0, len(endpoints))
	for n := range endpoints {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parseMix(base, mix string) ([]load.Target, error) {
	var out []load.Target
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1.0
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name = part[:eq]
			w, err := strconv.ParseFloat(part[eq+1:], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight in mix entry %q", part)
			}
			weight = w
		}
		path, ok := endpoints[name]
		if !ok {
			return nil, fmt.Errorf("unknown endpoint %q (have %s)", name, strings.Join(endpointNames(), ","))
		}
		out = append(out, load.Target{Name: name, URL: base + path, Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return out, nil
}
