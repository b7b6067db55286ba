package whatif

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// The patch syntax is core's (core.ParsePatch over core.PolicyAxes); it is
// pinned here, where `ampere-trace why -alt`, /whatif?alt= and the tournament
// grid hand it to Engine.Replay.

// randomValue draws a value of the axis in the text form String prints:
// one of an enum's names, an int, or a float — round and full-precision ones
// mixed, so the round-trip is exercised on both short and maximal %g forms.
// Finite floats only: %g is inverted exactly by ParseFloat for every one.
func randomValue(rng *rand.Rand, a core.PolicyAxis) string {
	switch a.Zero.(type) {
	case string:
		names := strings.Split(a.Values, "|")
		return names[rng.Intn(len(names))]
	case int:
		return strconv.Itoa(rng.Intn(20) - 2)
	case uint64:
		return strconv.FormatUint(rng.Uint64(), 10)
	}
	v := rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
	if rng.Intn(2) == 0 {
		v = math.Round(rng.Float64()*1000) / 1000
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func patchAxes(t *testing.T) []core.PolicyAxis {
	t.Helper()
	var axes []core.PolicyAxis
	for _, a := range core.PolicyAxes() {
		if a.Patch {
			axes = append(axes, a)
		}
	}
	// Every PolicyPatch field is some row's: the rows are found through
	// accessors, so a field without one would silently never print or apply.
	if n := reflect.TypeOf(core.PolicyPatch{}).NumField(); n != len(axes) {
		t.Fatalf("PolicyPatch has %d fields, core.PolicyAxes %d rows a patch may set", n, len(axes))
	}
	return axes
}

// TestParsePatchInvertsString is the property test behind the
// `ampere-trace why -alt` contract: for every subset of the axes a patch may
// set (random values per trial) the terms print in schema order exactly as
// written, and the printed form parses back to a deeply equal patch.
func TestParsePatchInvertsString(t *testing.T) {
	axes := patchAxes(t)
	rng := rand.New(rand.NewSource(42))
	for mask := 0; mask < 1<<len(axes); mask++ {
		var terms []string
		for i, a := range axes {
			if mask&(1<<i) != 0 {
				terms = append(terms, a.PatchKey()+"="+randomValue(rng, a))
			}
		}
		want := strings.Join(terms, " ")
		p, err := core.ParsePatch(want)
		if err != nil {
			t.Fatalf("mask %#x: ParsePatch(%q): %v", mask, want, err)
		}
		s := p.String()
		if s != want {
			t.Fatalf("mask %#x: String() = %q, parsed from %q", mask, s, want)
		}
		got, err := core.ParsePatch(s)
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("mask %#x: round-trip mismatch (%v)\n  in:  %+v\n  str: %q\n  out: %+v", mask, err, p, s, got)
		}
		if (s == "") != p.Empty() {
			t.Fatalf("mask %#x: String()==%q but Empty()==%v", mask, s, p.Empty())
		}
	}
}

// TestParsePatchCommaAndSpaceSeparators: both separators (and mixes) parse,
// as do a row's Key and its Alias.
func TestParsePatchCommaAndSpaceSeparators(t *testing.T) {
	a, err := core.ParsePatch("policy=coldest,et=ewma ramp=0.01")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ParsePatch("selection=coldest et=ewma,ramp=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || a.String() != "policy=coldest et=ewma ramp=0.01" {
		t.Errorf("separator variants differ: %+v vs %+v", a, b)
	}
}

func TestParsePatchRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	garbage := []string{
		"bogus=1", "policy=warmest", "et=arima", "unfreeze=never",
		"horizon=x", "et-alpha=x", "headroom-trigger=", "policy", "=static", "=",
	}
	for _, a := range core.PolicyAxes() {
		if !a.Patch {
			// Set at construction only: no spelling of it is a patch key.
			garbage = append(garbage, a.Key+"=7", a.SpecKey+"=7")
			continue
		}
		// A name where a number goes, a number where a name goes, and no
		// value at all; the control_policy spelling where it differs.
		garbage = append(garbage, a.Key+"=x7", a.Key+"=", a.Key, strings.ToUpper(a.Key)+"="+randomValue(rng, a))
		if spec := strings.ReplaceAll(a.Key, "-", "_"); spec != a.Key {
			garbage = append(garbage, spec+"="+randomValue(rng, a))
		}
	}
	for _, s := range garbage {
		if p, err := core.ParsePatch(s); err == nil {
			t.Errorf("ParsePatch(%q) accepted: %+v", s, p)
		}
	}
}
