package core

import (
	"fmt"
	"math"
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

// FuzzBoundaryMatchesSelect runs one domain's carried boundary through a
// sequence of ticks and holds every tick to two things: the boundary is the
// element selectTopKPref returns on a copy of the same ranking, and the tick
// was served from the band exactly when that element lies inside it — the
// band being the model's, carried by the stated width rule. Between ticks the
// powers drift by AR(1) noise and now and then jump (a budget cut scales
// every server, a restore scales it back), and k walks or jumps. shape picks
// the powers: bits 0–1 continuous, whole watts, all equal or a few coarse
// levels; bit 2 sprinkles the −1 missing-sample sentinel, bit 3 +Inf
// readings, and bit 4 plants servers exactly on both edges of the band.
func FuzzBoundaryMatchesSelect(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, servers uint16, ticks, shape uint8, hot bool) {
		n := 1 + int(servers)%512
		rng := rand.New(rand.NewSource(seed))
		ids := rng.Perm(n)
		base, noise := make([]float64, n), make([]float64, n)
		for i := range base {
			base[i] = 100 + 200*rng.Float64()
		}
		rank := make([]serverPower, n)
		ref := make([]serverPower, n)
		band := make([]serverPower, n)
		var cb carriedBoundary
		b, w := 0.0, 0.0 // the band cb should carry
		k := 1 + rng.Intn(n)
		for tick := 0; tick < 1+int(ticks)%64; tick++ {
			switch r := rng.Intn(16); {
			case r == 0, r == 1:
				scale := 0.8
				if r == 1 {
					scale = 1.25
				}
				for i := range base {
					base[i] *= scale
				}
			case r == 2:
				k = 1 + rng.Intn(n)
			case r < 6:
				k = min(max(k+rng.Intn(7)-3, 1), n)
			}
			for i := range rank {
				noise[i] = 0.9*noise[i] + 3*rng.NormFloat64()
				p := base[i] + noise[i]
				switch shape & 3 {
				case 1:
					p = math.Round(p)
				case 2:
					p = base[0] + noise[0]
				case 3:
					p = 50 * math.Round(p/50)
				}
				if shape&4 != 0 && rng.Intn(8) == 0 {
					p = -1
				}
				if shape&8 != 0 && rng.Intn(16) == 0 {
					p = math.Inf(1)
				}
				rank[i] = serverPower{id: cluster.ServerID(ids[i]), power: p}
			}
			if shape&16 != 0 && w <= math.MaxFloat64 {
				for _, sign := range []float64{1, -1} {
					p := bandEdge(b, sign*w)
					for j := 0; j < 3; j++ {
						rank[rng.Intn(n)].power = p
					}
				}
			}

			copy(ref, rank)
			want := selectTopKPref(ref, k, hot)
			wantHit := w <= math.MaxFloat64 && math.Abs(want.power-b) <= w
			copy(ref, rank)
			hits := cb.hits
			got := cb.topK(rank, band, k, hot)
			if got != want {
				t.Fatalf("tick %d, k=%d of %d, hot=%v, band %v±%v: boundary %+v, select says %+v",
					tick, k, n, hot, b, w, got, want)
			}
			if hit := cb.hits > hits; hit != wantHit {
				t.Fatalf("tick %d, k=%d of %d, hot=%v: boundary %v, band %v±%v, band hit %v, want %v",
					tick, k, n, hot, want.power, b, w, hit, wantHit)
			}
			if wantHit && !slices.Equal(rank, ref) {
				t.Fatalf("tick %d: a band hit reordered the ranking", tick)
			}
			nw := 1e-3 * math.Abs(want.power)
			if w <= math.MaxFloat64 {
				nw += max(2*math.Abs(want.power-b), w/2)
			}
			b, w = want.power, nw
		}
	})
}

// bandEdge returns a power p whose distance p − b rounds to exactly d, when
// one lies within a few ulps of b + d: a server on the band's edge.
func bandEdge(b, d float64) float64 {
	p := b + d
	for i := 0; i < 4 && p-b != d; i++ {
		if p-b < d {
			p = math.Nextafter(p, math.Inf(1))
		} else {
			p = math.Nextafter(p, math.Inf(-1))
		}
	}
	return p
}
