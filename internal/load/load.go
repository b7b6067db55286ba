// Package load is an open-loop wall-clock HTTP load harness for the powermon
// daemon: it fires GET requests at configured Poisson arrival rates against a
// set of endpoint targets and reports tail latencies and error counts per
// target.
//
// Open-loop means arrivals follow an absolute pre-drawn schedule and never
// wait for responses — the defining property of service traffic from millions
// of independent users (each user neither knows nor cares how many requests
// are already in flight). A slow server therefore sees queueing, not a
// politely throttled client: the harness measures the latency the users would
// see, where a closed-loop client would mask it. When the in-flight limit is
// reached, excess arrivals are counted as dropped rather than delayed, so the
// offered rate stays honest.
package load

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Target is one endpoint under load.
type Target struct {
	Name string
	URL  string
	// Weight is the target's share of the arrival stream, relative to the
	// other targets' weights. 0 counts as 1; a negative, NaN or infinite
	// weight is rejected.
	Weight float64
}

// Config parameterizes a run.
type Config struct {
	Targets []Target
	// RPS is the aggregate open-loop arrival rate across all targets.
	RPS float64
	// Duration is the length of the arrival schedule.
	Duration time.Duration
	// Timeout bounds each request (default 5 s).
	Timeout time.Duration
	// MaxInFlight bounds concurrent requests (default 512). Arrivals beyond
	// the bound are dropped, not delayed — open loop, not closed.
	MaxInFlight int
	// Seed drives the arrival schedule and target choices.
	Seed uint64
	// Client overrides the HTTP client (tests); Timeout is ignored when set.
	Client *http.Client
}

// TargetResult is one target's outcome.
type TargetResult struct {
	Name    string
	Sent    int64 // requests dispatched
	Done    int64 // responses with status < 400
	Errors  int64 // transport errors, timeouts, status ≥ 400
	Dropped int64 // arrivals shed at the in-flight limit
	// Latency holds response latencies in microseconds for completed
	// requests (success or HTTP error), not dropped or transport-failed ones.
	Latency *stats.LogHistogram
}

// Result is a full run's outcome.
type Result struct {
	// Intended is the number of arrivals the schedule produced; Intended =
	// Σ Sent + Σ Dropped. Being open-loop, it depends only on RPS, Duration
	// and Seed — never on server behaviour.
	Intended int64
	Elapsed  time.Duration
	Targets  []TargetResult
}

// Run executes the load schedule and blocks until every dispatched request
// completes or the context is cancelled.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	if !(cfg.RPS > 0) || math.IsInf(cfg.RPS, 0) {
		return nil, fmt.Errorf("load: arrival rate %v must be positive and finite", cfg.RPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: non-positive duration %v", cfg.Duration)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("load: negative in-flight limit %d", cfg.MaxInFlight)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	cum := make([]float64, len(cfg.Targets))
	total := 0.0
	for i, tg := range cfg.Targets {
		if tg.URL == "" {
			return nil, fmt.Errorf("load: target %d (%s) has no URL", i, tg.Name)
		}
		w := tg.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("load: target %d (%s) weight %v invalid", i, tg.Name, tg.Weight)
		}
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}

	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	res := &Result{Targets: make([]TargetResult, len(cfg.Targets))}
	var mu sync.Mutex // guards res.Targets counters and histograms
	for i, tg := range cfg.Targets {
		h, err := stats.NewLogHistogram(1, 60e6, 2400) // 1 µs … 60 s
		if err != nil {
			return nil, err
		}
		res.Targets[i] = TargetResult{Name: tg.Name, Latency: h}
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	// The schedule is absolute: the i-th arrival lands at start + Σ gaps,
	// with exponential gaps at 1/RPS mean. Sleeping is relative to that fixed
	// timeline, so a stall never compresses or stretches the offered load,
	// and the arrival count is a pure function of (RPS, Duration, Seed).
	next := start
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.RPS)
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		res.Intended++
		ti := pickTarget(rng, cum)
		select {
		case sem <- struct{}{}:
		default:
			mu.Lock()
			res.Targets[ti].Dropped++
			mu.Unlock()
			continue
		}
		mu.Lock()
		res.Targets[ti].Sent++
		mu.Unlock()
		wg.Add(1)
		go func(ti int, url string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			ok, responded := doGet(ctx, client, url)
			latUS := float64(time.Since(t0)) / float64(time.Microsecond)
			mu.Lock()
			defer mu.Unlock()
			if ok {
				res.Targets[ti].Done++
			} else {
				res.Targets[ti].Errors++
			}
			if responded {
				res.Targets[ti].Latency.Add(latUS)
			}
		}(ti, cfg.Targets[ti].URL)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

// doGet issues one request. ok means status < 400; responded means an HTTP
// response arrived at all (latency is meaningful).
func doGet(ctx context.Context, client *http.Client, url string) (ok, responded bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode < 400, true
}

func pickTarget(r *rand.Rand, cum []float64) int {
	x := r.Float64()
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// Format renders the run as an aligned table with p50/p99/p999 tails per
// target, plus an aggregate row.
func (res *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-loop run: %d arrivals over %.1fs (%.1f rps offered)\n\n",
		res.Intended, res.Elapsed.Seconds(),
		float64(res.Intended)/res.Elapsed.Seconds())
	fmt.Fprintf(&b, "%-10s %8s %8s %7s %8s %10s %10s %10s\n",
		"target", "sent", "done", "errors", "dropped", "p50(ms)", "p99(ms)", "p999(ms)")
	rows := make([]TargetResult, len(res.Targets))
	copy(rows, res.Targets)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	agg, err := stats.NewLogHistogram(1, 60e6, 2400)
	if err != nil {
		panic(err) // fixed valid layout; cannot fail
	}
	var sent, done, errs, dropped int64
	for _, tr := range rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %7d %8d %10s %10s %10s\n",
			tr.Name, tr.Sent, tr.Done, tr.Errors, tr.Dropped,
			fmtMS(tr.Latency, 0.50), fmtMS(tr.Latency, 0.99), fmtMS(tr.Latency, 0.999))
		if err := agg.Merge(tr.Latency); err != nil {
			panic(err) // identical layouts by construction
		}
		sent += tr.Sent
		done += tr.Done
		errs += tr.Errors
		dropped += tr.Dropped
	}
	fmt.Fprintf(&b, "%-10s %8d %8d %7d %8d %10s %10s %10s\n",
		"TOTAL", sent, done, errs, dropped,
		fmtMS(agg, 0.50), fmtMS(agg, 0.99), fmtMS(agg, 0.999))
	return b.String()
}

func fmtMS(h *stats.LogHistogram, q float64) string {
	if h.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", h.Quantile(q)/1000)
}
