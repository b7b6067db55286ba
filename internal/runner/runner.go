// Package runner is the deterministic fan-out layer for independent
// experiment runs. The evaluation suite — figure scenarios, ablation
// variants, chaos regimes, multi-seed replications — is embarrassingly
// parallel: every unit builds its own fully isolated rig (engine, RNG,
// TSDB, registry) from an explicit seed, so units may execute in any order
// on any number of goroutines without changing a single result.
//
// The pool makes that contract operational:
//
//   - Results are collected by unit index, so merged output is byte-identical
//     to the serial order at any worker count.
//   - Workers = min(GOMAXPROCS, len(units)) by default, the calling
//     goroutine counting as one, so one worker runs every unit inline, in order.
//   - A unit panic is captured and attributed (unit name, index, stack)
//     instead of killing the process.
//   - The first error cancels cooperatively: units not yet started are
//     skipped, in-flight units finish, and the lowest-indexed failure is
//     returned.
//   - Per-unit wall-clock and completion order are reported through an
//     optional callback for progress display.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Unit is one independent run: a name for attribution and a closure
// producing the unit's result. Units must not share mutable state — each
// closure builds everything it touches (the experiment package's run units
// construct a fresh rig per call).
type Unit[T any] struct {
	Name string
	Run  func() (T, error)
}

// Report describes one finished (or skipped) unit, for progress display.
type Report struct {
	Index   int
	Name    string
	Elapsed time.Duration
	Err     error
	// Skipped marks units never started because an earlier unit failed.
	Skipped bool
}

// Options tunes one Run call.
type Options struct {
	// Workers caps pool concurrency. <= 0 selects min(GOMAXPROCS,
	// len(units)); 1 executes units in order on the calling goroutine.
	Workers int
	// OnDone, when non-nil, is invoked once per unit as it finishes or is
	// skipped. Calls are serialized; completion order is scheduling-dependent
	// (only result order is deterministic).
	OnDone func(Report)
}

// PanicError attributes a panic recovered from a unit.
type PanicError struct {
	Unit  string
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: unit %d (%s) panicked: %v", e.Index, e.Unit, e.Value)
}

// Run executes the units and returns their results indexed exactly like the
// input slice. On failure it returns the partial results together with the
// error of the lowest-indexed failed unit, wrapped with the unit's name.
func Run[T any](units []Unit[T], opts Options) ([]T, error) {
	n := len(units)
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var mu sync.Mutex // serializes OnDone
	report := func(r Report) {
		if opts.OnDone == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		opts.OnDone(r)
	}

	var (
		errs   = make([]error, n)
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if failed.Load() {
				report(Report{Index: i, Name: units[i].Name, Skipped: true})
				continue
			}
			res, err := runUnit(units[i], i, report)
			if err != nil {
				errs[i] = err
				failed.Store(true)
				continue
			}
			out[i] = res
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out, firstError(units, errs)
}

// runUnit executes one unit with panic capture and wall-clock reporting.
func runUnit[T any](u Unit[T], i int, report func(Report)) (res T, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Unit: u.Name, Index: i, Value: r, Stack: debug.Stack()}
		}
		report(Report{Index: i, Name: u.Name, Elapsed: time.Since(start), Err: err})
	}()
	return u.Run()
}

// firstError returns the lowest-indexed failure, wrapped with its unit name
// (panics are already attributed and pass through unwrapped).
func firstError[T any](units []Unit[T], errs []error) error {
	for i, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := err.(*PanicError); ok {
			return err
		}
		return fmt.Errorf("runner: unit %d (%s): %w", i, units[i].Name, err)
	}
	return nil
}
