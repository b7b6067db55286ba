// Command ampere-ctl is the operator's query tool against a running powermon
// (or any server exposing the monitor's RESTful API):
//
//	ampere-ctl -addr http://localhost:8080 series
//	ampere-ctl -addr http://localhost:8080 latest row/0
//	ampere-ctl -addr http://localhost:8080 query row/0 -last 30
//	ampere-ctl -addr http://localhost:8080 status
//
// It exits 2 on a usage error and 1 when the server cannot answer.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/sim"
	"repro/internal/tsdb"
)

const usage = "usage: ampere-ctl [-addr URL] series | latest <name> | query [-last N] <name> | status"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ampere-ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8080", "powermon base URL")
	if fs.Parse(args) != nil {
		return 2
	}
	client := tsdb.NewClient(*addr)
	cmd, rest := fs.Arg(0), fs.Args()[min(1, fs.NArg()):]
	var err error
	switch {
	case cmd == "series" && len(rest) == 0:
		err = series(client, stdout)
	case cmd == "latest" && len(rest) == 1:
		err = latest(client, stdout, rest[0])
	case cmd == "query":
		qs := flag.NewFlagSet("query", flag.ContinueOnError)
		qs.SetOutput(stderr)
		last := qs.Int("last", 0, "only the last N minutes")
		// Flags may come before the name or after it.
		if qs.Parse(rest) != nil {
			return 2
		}
		name := qs.Arg(0)
		if qs.Parse(qs.Args()[min(1, qs.NArg()):]) != nil {
			return 2
		}
		if name == "" || qs.NArg() != 0 {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		err = query(client, stdout, name, *last)
	case cmd == "status" && len(rest) == 0:
		err = status(*addr, stdout)
	default:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "ampere-ctl:", err)
		return 1
	}
	return 0
}

func series(c *tsdb.Client, w io.Writer) error {
	names, err := c.Names()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Fprintln(w, n)
	}
	return nil
}

func latest(c *tsdb.Client, w io.Writer, name string) error {
	p, err := c.Latest(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s  %v  %.1f W\n", name, p.T, p.V)
	return nil
}

func query(c *tsdb.Client, w io.Writer, name string, lastMinutes int) error {
	var pts []tsdb.Point
	var err error
	if lastMinutes > 0 {
		p, lerr := c.Latest(name)
		if lerr != nil {
			return lerr
		}
		from := p.T.Add(-sim.Duration(lastMinutes) * sim.Minute)
		pts, err = c.Query(name, from, p.T)
	} else {
		pts, err = c.QueryAll(name)
	}
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "%v  %.1f\n", p.T, p.V)
	}
	return nil
}

// status fetches powermon's /status endpoint (free-form JSON, printed raw).
func status(addr string, w io.Writer) error {
	resp, err := http.Get(addr + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /status: %s", resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
