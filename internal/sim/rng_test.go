package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"
)

// SubSeed once hashed through hash/fnv and a []byte copy of the label; the
// inline hash and the label-free SubSeedN must derive the same seeds.
func TestSubSeedMatchesHashFNV(t *testing.T) {
	for _, master := range []uint64{0, 1, 0xdeadbeefcafe} {
		for _, n := range []int{0, 7, 10, 99999, 1000000, -3} {
			label := fmt.Sprintf("server-noise-%d", n)
			h := fnv.New64a()
			_, _ = h.Write([]byte(label))
			want := splitmix64(master ^ h.Sum64())
			if got := SubSeed(master, label); got != want {
				t.Errorf("SubSeed(%d, %q) = %x, hash/fnv gives %x", master, label, got, want)
			}
			if got := SubSeedN(master, "server-noise-", n); got != want {
				t.Errorf("SubSeedN(%d, server-noise-, %d) = %x, SubSeed of the label gives %x", master, n, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { SubSeedN(1, "server-noise-", 123456) }); allocs != 0 {
		t.Errorf("SubSeedN allocates %v times", allocs)
	}
}

// CursorSource is the rand.Source64 of NewRNG with its state held elsewhere:
// point At at a word that started as RNGState(seed) and a rand.Rand built
// over the cursor draws exactly what NewRNG(seed) would, advancing that word.
// rand.Rand buffers nothing between draws (only Read does, which nothing
// here calls), so one Rand can serve any number of streams in any
// interleaving. It is the oracle NormFloat64, ExpFloat64 and Float64 are
// held to.
type CursorSource struct{ At *uint64 }

func (c *CursorSource) Seed(seed int64) { *c.At = uint64(seed) }
func (c *CursorSource) Uint64() uint64  { return smNext(c.At) }
func (c *CursorSource) Int63() int64    { return int64(c.Uint64() >> 1) }

// One rand.Rand over a cursor, moved between interleaved streams, draws what
// a NewRNG per stream draws — through NormFloat64's rejection paths too.
func TestCursorSourceMatchesNewRNG(t *testing.T) {
	const streams = 5
	var state [streams]uint64
	own := make([]func() float64, streams)
	for i := range state {
		state[i] = RNGState(uint64(100 + i))
		own[i] = NewRNG(uint64(100 + i)).NormFloat64
	}
	var cur CursorSource
	shared := rand.New(&cur)
	for draw := 0; draw < 5000; draw++ {
		for i := range state {
			cur.At = &state[i]
			if got, want := shared.NormFloat64(), own[i](); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stream %d draw %d: cursor %v, own generator %v", i, draw, got, want)
			}
		}
	}
}

// Poisson's inversion loop compares against exp(−mean); with a NaN mean the
// comparison is false forever. It used to spin; it must return 0.
func TestPoissonNaNMeanReturns(t *testing.T) {
	done := make(chan int, 1)
	go func() { done <- Poisson(NewRNG(1), math.NaN()) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("Poisson(NaN) = %d, want 0", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Poisson(NaN) did not return")
	}
}
