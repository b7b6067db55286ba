package obs

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "Requests served.").Add(3)
	r.GaugeVec("temp_celsius", "Temperature by zone.", "zone").With("row/0").Set(21.5)
	r.GaugeVec("temp_celsius", "Temperature by zone.", "zone").With("row/1").Set(-3)
	r.Gauge("pressure", "Pressure.").Set(math.Inf(1))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pressure Pressure.
# TYPE pressure gauge
pressure +Inf
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3
# HELP temp_celsius Temperature by zone.
# TYPE temp_celsius gauge
temp_celsius{zone="row/0"} 21.5
temp_celsius{zone="row/1"} -3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSummaryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "Op latency.", 1e-6, 10, 200)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE op_seconds summary",
		`op_seconds{quantile="0.5"}`,
		`op_seconds{quantile="0.999"}`,
		"op_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// _sum is exact, not bucket-quantized: 1+2+...+100 ms = 5.05 s.
	if !strings.Contains(out, "op_seconds_sum 5.05") {
		t.Errorf("exposition missing exact sum:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("events_total", `Help with \ and newline
continued.`, "path").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP events_total Help with \\ and newline\ncontinued.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `events_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "Hits.")
	b := r.Counter("hits_total", "Hits.")
	if a != b {
		t.Error("same-shape re-registration should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("counter identity broken: got %d", b.Value())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type change", func(r *Registry) {
			r.Counter("m", "h")
			r.Gauge("m", "h")
		}},
		{"label change", func(r *Registry) {
			r.CounterVec("m", "h", "a")
			r.CounterVec("m", "h", "b")
		}},
		{"bucket layout change", func(r *Registry) {
			r.Histogram("m", "h", 1e-6, 10, 100)
			r.Histogram("m", "h", 1e-6, 100, 100)
		}},
		{"non-finite bucket range", func(r *Registry) { r.Histogram("m", "h", 1e-6, math.Inf(1), 100) }},
		{"NaN bucket range", func(r *Registry) { r.Histogram("m", "h", math.NaN(), 10, 100) }},
		{"collector over static", func(r *Registry) {
			r.Counter("m", "h")
			r.RegisterCollector("m", "h", TypeCounter, nil, func(Emit) {})
		}},
		{"duplicate collector", func(r *Registry) {
			r.GaugeFunc("m", "h", func() float64 { return 0 })
			r.GaugeFunc("m", "h", func() float64 { return 0 })
		}},
		{"invalid name", func(r *Registry) { r.Counter("0bad", "h") }},
		{"reserved quantile label", func(r *Registry) { r.CounterVec("m", "h", "quantile") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.RegisterCollector("live_value", "Collected at scrape time.", TypeGauge,
		[]string{"domain"}, func(emit Emit) {
			emit([]string{"row/0"}, v)
		})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `live_value{domain="row/0"} 7`) {
		t.Errorf("collector sample missing:\n%s", b.String())
	}
	v = 8
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `live_value{domain="row/0"} 8`) {
		t.Errorf("collector not re-invoked at scrape:\n%s", b.String())
	}
}

// TestConcurrentScrape hammers every metric kind from writer goroutines while
// scraping; run with -race this is the registry's thread-safety proof.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", 1e-6, 10, 100)
	cv := r.CounterVec("cv_total", "cv", "k")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i+1) / 1e4)
				cv.With(strconv.Itoa(w)).Inc()
			}
		}(w)
	}
	for s := 0; s < 20; s++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("counter = %d, want 4000", c.Value())
	}
}

// TestExpositionParseable checks the full output against the text-format
// grammar line by line: every line is a comment or `name{labels} value`
// with a parseable value, and every sample's family is TYPE-declared first.
func TestExpositionParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Inc()
	r.GaugeVec("b", "b", "x", "y").With("1", "2").Set(math.NaN())
	r.HistogramVec("c_seconds", "c", 1e-6, 10, 100, "op").With("freeze").Observe(0.5)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]bool{}
	samples := 0
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value := line, ""
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			name, value = line[:i], line[i+1:]
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("line %d: unbalanced labels: %q", ln+1, line)
			}
			name = name[:i]
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "NaN" && value != "+Inf" && value != "-Inf" {
			t.Errorf("line %d: bad value %q in %q", ln+1, value, line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if base != name {
			// _sum/_count belong to the summary family.
			name = base
		}
		if !typed[name] && !typed[strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")] {
			t.Errorf("line %d: sample %q before its TYPE declaration", ln+1, name)
		}
		samples++
	}
	if samples == 0 {
		t.Error("no samples in exposition")
	}
}

func TestCounterNeverDecreases(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d after negative Add, want 5", c.Value())
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
}

func TestHandlerRejectsPost(t *testing.T) {
	srv := httptest.NewServer(NewRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}

func BenchmarkRegistryScrape(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.CounterVec(fmt.Sprintf("bench_c%d_total", i), "c", "domain").With("row/0").Add(int64(i))
		r.Histogram(fmt.Sprintf("bench_h%d_seconds", i), "h", 1e-6, 10, 400).Observe(0.001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
