package experiment

import "repro/internal/runner"

// runUnits fans one experiment's independent variants out on the runner
// pool at its default width, GOMAXPROCS. Each call of run(i) must build
// everything it touches — a fresh rig per variant — so the units satisfy the
// runner's isolation contract and results are byte-identical to the serial
// order at any worker count.
func runUnits[T any](names []string, run func(i int) (T, error)) ([]T, error) {
	units := make([]runner.Unit[T], len(names))
	for i, name := range names {
		units[i] = runner.Unit[T]{Name: name, Run: func() (T, error) { return run(i) }}
	}
	return runner.Run(units, runner.Options{})
}
