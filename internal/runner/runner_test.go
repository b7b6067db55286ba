package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// squareUnits builds n units whose results encode their index, with an
// artificial dependence on a per-unit accumulator to catch state sharing.
func squareUnits(n int) []Unit[int] {
	units := make([]Unit[int], n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = Unit[int]{Name: fmt.Sprintf("u%d", i), Run: func() (int, error) {
			acc := 0
			for k := 0; k <= i; k++ {
				acc += k
			}
			return acc*1000 + i, nil
		}}
	}
	return units
}

func TestResultsIndexedLikeInput(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		out, err := Run(squareUnits(23), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v%1000 != i {
				t.Fatalf("workers=%d: out[%d] = %d, wrong slot", workers, i, v)
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Run(squareUnits(17), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(squareUnits(17), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d vs parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	out, err := Run[int](nil, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v %v", out, err)
	}
	one, err := Run([]Unit[string]{{Name: "solo", Run: func() (string, error) { return "ok", nil }}}, Options{})
	if err != nil || one[0] != "ok" {
		t.Fatalf("single run: %v %v", one, err)
	}
}

func TestPanicCaptureWithAttribution(t *testing.T) {
	units := squareUnits(4)
	units[2] = Unit[int]{Name: "boom", Run: func() (int, error) { panic("kaboom") }}
	for _, workers := range []int{1, 3} {
		_, err := Run(units, Options{Workers: workers})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v, want PanicError", workers, err)
		}
		if pe.Unit != "boom" || pe.Index != 2 {
			t.Errorf("workers=%d: attribution %q/%d", workers, pe.Unit, pe.Index)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("workers=%d: message %q lacks unit name", workers, pe.Error())
		}
	}
}

// Run's contract: a unit not yet started when a failure is recorded is
// reported Skipped and never runs. Every unit after the first blocks until
// the run reports its first skip, so a unit can only have run if it was in
// flight when unit 0's failure was recorded: at most one per other worker.
// Nothing here waits on unit 0's return, so the count does not depend on how
// the workers are scheduled. Without cancellation no skip ever comes; the
// gate's timeout then lets every unit run, and the count fails.
func TestFirstErrorCancelsRemainingUnits(t *testing.T) {
	const n = 64
	const workers = 2
	var ran [n]atomic.Bool
	gate := make(chan struct{})
	var closeGate sync.Once
	release := func() { closeGate.Do(func() { close(gate) }) }
	timeout := time.AfterFunc(time.Second, release)
	defer timeout.Stop()
	units := make([]Unit[int], n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = Unit[int]{Name: fmt.Sprintf("u%d", i), Run: func() (int, error) {
			ran[i].Store(true)
			if i == 0 {
				return 0, errors.New("unit zero failed")
			}
			<-gate
			return i, nil
		}}
	}
	reports := make([]int, n)
	skipped := make([]bool, n)
	_, err := Run(units, Options{Workers: workers, OnDone: func(r Report) {
		reports[r.Index]++
		if r.Skipped {
			skipped[r.Index] = true
			release()
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "unit 0 (u0)") {
		t.Fatalf("error %v, want attributed unit-zero failure", err)
	}
	ranAfter := 0
	for i := 0; i < n; i++ {
		switch {
		case reports[i] != 1:
			t.Errorf("unit %d reported %d times, want once", i, reports[i])
		case ran[i].Load() == skipped[i]:
			t.Errorf("unit %d: ran %v, reported skipped %v; want exactly one", i, ran[i].Load(), skipped[i])
		case i > 0 && ran[i].Load():
			ranAfter++
		}
	}
	if !ran[0].Load() {
		t.Error("unit 0 never ran")
	}
	if ranAfter > workers-1 {
		t.Errorf("%d units besides unit 0 ran, want ≤ %d: units not yet started when it failed were not skipped", ranAfter, workers-1)
	}
}

func TestSerialStopsAtFirstErrorInOrder(t *testing.T) {
	var order []string
	units := []Unit[int]{
		{Name: "a", Run: func() (int, error) { order = append(order, "a"); return 1, nil }},
		{Name: "b", Run: func() (int, error) { order = append(order, "b"); return 0, errors.New("b broke") }},
		{Name: "c", Run: func() (int, error) { order = append(order, "c"); return 3, nil }},
	}
	out, err := Run(units, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "unit 1 (b)") {
		t.Fatalf("error %v", err)
	}
	if strings.Join(order, "") != "ab" {
		t.Errorf("execution order %v, want a then b only", order)
	}
	if out[0] != 1 {
		t.Errorf("successful result dropped: %v", out)
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	units := make([]Unit[int], 8)
	for i := range units {
		i := i
		units[i] = Unit[int]{Name: fmt.Sprintf("u%d", i), Run: func() (int, error) {
			return 0, fmt.Errorf("err-%d", i)
		}}
	}
	_, err := Run(units, Options{Workers: 8})
	if err == nil {
		t.Fatal("no error returned")
	}
	// Every unit that ran failed; the reported one must be the lowest index
	// among them. With 8 workers on 8 units all may run; unit 0 always runs.
	if !strings.Contains(err.Error(), "unit 0 (u0)") {
		t.Errorf("error %v, want the lowest-indexed failure", err)
	}
}

func TestProgressReports(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]Report{}
	units := squareUnits(9)
	_, err := Run(units, Options{Workers: 3, OnDone: func(r Report) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[r.Index]; dup {
			t.Errorf("duplicate report for unit %d", r.Index)
		}
		seen[r.Index] = r
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(units) {
		t.Fatalf("%d reports for %d units", len(seen), len(units))
	}
	for i, r := range seen {
		if r.Name != fmt.Sprintf("u%d", i) || r.Err != nil || r.Skipped {
			t.Errorf("report %d: %+v", i, r)
		}
	}
}

func TestSkippedUnitsAreReported(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	skipped := 0
	units := make([]Unit[int], n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = Unit[int]{Name: fmt.Sprintf("u%d", i), Run: func() (int, error) {
			if i == 0 {
				return 0, errors.New("fail fast")
			}
			return i, nil
		}}
	}
	reports := 0
	_, err := Run(units, Options{Workers: 1, OnDone: func(r Report) {
		mu.Lock()
		defer mu.Unlock()
		reports++
		if r.Skipped {
			skipped++
		}
	}})
	if err == nil {
		t.Fatal("expected error")
	}
	if reports != n || skipped != n-1 {
		t.Errorf("reports %d skipped %d, want %d/%d", reports, skipped, n, n-1)
	}
}

func TestWorkersClampedToUnits(t *testing.T) {
	// More workers than units must not deadlock or duplicate work.
	var ran atomic.Int64
	units := make([]Unit[struct{}], 3)
	for i := range units {
		units[i] = Unit[struct{}]{Name: "u", Run: func() (struct{}, error) {
			ran.Add(1)
			return struct{}{}, nil
		}}
	}
	if _, err := Run(units, Options{Workers: 64}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Errorf("ran %d units, want 3", ran.Load())
	}
}
