package sim

import (
	"math"
	"math/rand"
	"testing"
)

// NormFloat64, ExpFloat64 and Float64 are math/rand's over a state word, so
// they must draw what a rand.Rand over a cursor on the same word draws, bit
// for bit, and leave the word where that generator leaves it — on each
// ziggurat's fast path, in its base strip (i == 0) and in its wedges alike.
// Each stream interleaves the three draws, and each of the ziggurats' first
// attempts is classified by the path it takes; every path must be taken.
func TestDrawsMatchMathRand(t *testing.T) {
	const seeds, draws = 2000, 20000
	var cur CursorSource
	oracle := rand.New(&cur)
	var fast, base, wedge int
	var expFast, expBase, expWedge int
	for seed := uint64(0); seed < seeds; seed++ {
		state := RNGState(seed)
		want := state
		cur.At = &want
		for d := 0; d < draws; d++ {
			peek := state
			j := int32(smNext(&peek) >> 32)
			switch i := j & 0x7F; {
			case absInt32(j) < kn[i]:
				fast++
			case i == 0:
				base++
			default:
				wedge++
			}
			if got, exp := NormFloat64(&state), oracle.NormFloat64(); math.Float64bits(got) != math.Float64bits(exp) || state != want {
				t.Fatalf("seed %d draw %d: NormFloat64 %v (state %x), math/rand %v (state %x)", seed, d, got, state, exp, want)
			}
			if got, exp := Float64(&state), oracle.Float64(); math.Float64bits(got) != math.Float64bits(exp) || state != want {
				t.Fatalf("seed %d draw %d: Float64 %v (state %x), math/rand %v (state %x)", seed, d, got, state, exp, want)
			}
			peek = state
			u := uint32(smNext(&peek) >> 32)
			switch i := u & 0xFF; {
			case u < ke[i]:
				expFast++
			case i == 0:
				expBase++
			default:
				expWedge++
			}
			if got, exp := ExpFloat64(&state), oracle.ExpFloat64(); math.Float64bits(got) != math.Float64bits(exp) || state != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v (state %x), math/rand %v (state %x)", seed, d, got, state, exp, want)
			}
		}
	}
	t.Logf("normal first attempts: %d fast path, %d base strip, %d wedge", fast, base, wedge)
	t.Logf("exponential first attempts: %d fast path, %d base strip, %d wedge", expFast, expBase, expWedge)
	if fast == 0 || base == 0 || wedge == 0 {
		t.Errorf("a normal ziggurat path went untested: %d fast path, %d base strip, %d wedge", fast, base, wedge)
	}
	if expFast == 0 || expBase == 0 || expWedge == 0 {
		t.Errorf("an exponential ziggurat path went untested: %d fast path, %d base strip, %d wedge", expFast, expBase, expWedge)
	}
}
