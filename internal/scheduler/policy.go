package scheduler

import (
	"math/rand"

	"repro/internal/workload"
)

// RandomFit places jobs uniformly at random among fitting candidates. It is
// the default policy: with many rows and products it yields the
// proportional-to-available-servers property the paper's statistical control
// assumes.
type RandomFit struct{}

// Name implements Policy.
func (RandomFit) Name() string { return "random-fit" }

// Pick implements Policy.
func (RandomFit) Pick(r *rand.Rand, _ *workload.Job, candidates []int32) int32 {
	return candidates[r.Intn(len(candidates))]
}
