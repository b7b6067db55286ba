package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// adversarialInputs are orderings that historically drive median-of-three
// Lomuto quickselect quadratic: the organ-pipe permutation in particular
// defeats the median-of-three pivot choice round after round.
func adversarialInputs(n int) map[string][]serverPower {
	mk := func(f func(i int) float64) []serverPower {
		sp := make([]serverPower, n)
		for i := range sp {
			sp[i] = serverPower{id: cluster.ServerID(i), power: f(i)}
		}
		return sp
	}
	return map[string][]serverPower{
		"sorted":    mk(func(i int) float64 { return float64(i) }),
		"reversed":  mk(func(i int) float64 { return float64(n - i) }),
		"organpipe": mk(func(i int) float64 { return float64(min(i, n-i)) }),
		"allequal":  mk(func(int) float64 { return 42 }),
		"sawtooth":  mk(func(i int) float64 { return float64(i % 16) }),
	}
}

// prefCmp is the full-sort reference order for a ranked preference.
func prefCmp(hot bool) func(a, b serverPower) int {
	if hot {
		return cmpHot
	}
	return cmpCold
}

// TestSelectTopKFallbackMatchesFullSort forces the introselect fallback
// (depth 0) and checks it returns exactly the element a full sort places at
// k−1, with sp[:k] holding the top-k set, on random and structured inputs,
// hottest-first and coldest-first.
func TestSelectTopKFallbackMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	check := func(name string, sp []serverPower, k int, hot bool, depth int) {
		cmp := prefCmp(hot)
		want := append([]serverPower(nil), sp...)
		slices.SortFunc(want, cmp)
		got, _ := selectTopKPrefDepth(sp, k, hot, depth)
		if got != want[k-1] {
			t.Fatalf("%s k=%d hot=%v depth=%d: boundary %+v, full sort says %+v", name, k, hot, depth, got, want[k-1])
		}
		top := append([]serverPower(nil), sp[:k]...)
		slices.SortFunc(top, cmp)
		if !slices.Equal(top, want[:k]) {
			t.Fatalf("%s k=%d hot=%v depth=%d: sp[:k] is not the top-k set", name, k, hot, depth)
		}
	}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(64)
		sp := make([]serverPower, n)
		for j := range sp {
			sp[j] = serverPower{id: cluster.ServerID(j), power: float64(rng.Intn(8))}
		}
		rng.Shuffle(n, func(a, b int) { sp[a], sp[b] = sp[b], sp[a] })
		k := 1 + rng.Intn(n)
		for _, depth := range []int{0, 1, 2} {
			check("random", append([]serverPower(nil), sp...), k, true, depth)
			check("random", append([]serverPower(nil), sp...), k, false, depth)
		}
	}
	for name, sp := range adversarialInputs(257) {
		for _, k := range []int{1, 64, 128, 257} {
			for _, hot := range []bool{true, false} {
				check(name, append([]serverPower(nil), sp...), k, hot, 0)
				check(name, append([]serverPower(nil), sp...), k, hot, 3)
			}
		}
	}
}

// TestSelectTopKWorstCaseBound is the worst-case guard. lessPref is inlined,
// so comparisons cannot be counted; partitions can, and each costs at most n
// comparisons. Left to run, quickselect spends far more than 2·⌈log₂ n⌉
// partitions on the organ-pipe ordering (~n²/4 comparisons at n=32768); the
// product's entry point stops at that budget and still returns what the full
// sort would.
func TestSelectTopKWorstCaseBound(t *testing.T) {
	const n = 1 << 15
	budget := 2 * bits.Len(uint(n))
	for _, hot := range []bool{true, false} {
		unbounded := 0
		for name, src := range adversarialInputs(n) {
			want := append([]serverPower(nil), src...)
			slices.SortFunc(want, prefCmp(hot))

			sp := append([]serverPower(nil), src...)
			if got := selectTopKPref(sp, n/3, hot); got != want[n/3-1] {
				t.Errorf("%s hot=%v: boundary %+v, full sort says %+v", name, hot, got, want[n/3-1])
			}
			sp = append(sp[:0], src...)
			if _, spent := selectTopKPrefDepth(sp, n/3, hot, budget); spent > budget {
				t.Errorf("%s hot=%v: %d partitions, budget %d — introselect guard not engaging", name, hot, spent, budget)
			}
			sp = append(sp[:0], src...)
			_, spent := selectTopKPrefDepth(sp, n/3, hot, n)
			unbounded = max(unbounded, spent)
		}
		if unbounded <= budget {
			t.Errorf("hot=%v: no adversarial input needs more than %d partitions (worst %d); the guard is untested",
				hot, budget, unbounded)
		}
	}
}

// BenchmarkSelectTopKAdversarial pins the worst case at benchmark
// granularity: organ-pipe input, re-ranked each iteration (the rank scratch
// is refilled every controller tick, so each tick re-partitions from the
// same adversarial arrangement).
func BenchmarkSelectTopKAdversarial(b *testing.B) {
	const n = 1 << 15
	src := adversarialInputs(n)["organpipe"]
	scratch := make([]serverPower, n)
	for _, hot := range []bool{true, false} {
		b.Run(fmt.Sprintf("hot=%v", hot), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, src)
				selectTopKPref(scratch, n/3, hot)
			}
		})
	}
}
