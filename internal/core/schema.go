package core

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// PolicyAxis is one row of the policy schema: a tunable of Algorithm 1 or of
// its ablations. An axis is declared once, in policyAxes; patch syntax
// (ParsePatch, PolicyPatch.String), a scenario file's control_policy block,
// Config.Validate, the zero-selects-the-default rule and the table in
// docs/OPERATIONS.md §13 are loops over the rows.
type PolicyAxis struct {
	// Key is the axis in patch syntax, if Patch says a patch may set it;
	// Alias, where set, is what PolicyPatch.String prints instead
	// (ParsePatch takes either). SpecKey is Key in a control_policy block,
	// '_' for '-': "" for an axis the controller holds and Config does not.
	Key, Alias, SpecKey string
	Patch               bool
	// Values is what the axis accepts, an enum's names ("all|headroom") or a
	// number's interval ("(0,1]"); Zero is the zero of the Go type a
	// control_policy block holds it in, a string for a name.
	Values string
	Zero   any
	Doc    string

	// SetConfig parses text into the axis's Config field, nil where SpecKey
	// is "". An empty text or a zero value keeps what the field holds: in a
	// scenario file 0 selects the default. Config.Validate judges the range.
	SetConfig func(cfg *Config, text string) error
	// settle judges the Config field, first resolving a zero to the default
	// where the axis has one.
	settle func(*Config) error

	patchText  func(*PolicyPatch) (text string, set bool)
	patchParse func(*PolicyPatch, string) error
	patchApply func(*PolicyPatch, *Config) error
}

// bind fills in a row's typed half over its PolicyPatch field (nil: the axis
// is set at construction only) and its Config field (nil: the controller
// holds it). def, unless zero, is what a zero Config field resolves to.
func bind[T comparable](a PolicyAxis, parse func(string) (T, error), format func(T) string,
	valid func(T) bool, def T, patch func(*PolicyPatch) **T, cfg func(*Config) *T) PolicyAxis {
	var zero T
	judge := func(v T) error {
		if valid(v) {
			return nil
		}
		return fmt.Errorf("core: %s %s outside %s", a.Key, format(v), a.Values)
	}
	a.Zero = cmp.Or(a.Zero, any(zero))
	if a.Patch = patch != nil; a.Patch {
		a.patchParse = func(p *PolicyPatch, s string) error {
			v, err := parse(s)
			if err == nil {
				*patch(p) = &v
			}
			return err
		}
		a.patchText = func(p *PolicyPatch) (string, bool) {
			if v := *patch(p); v != nil {
				return format(*v), true
			}
			return "", false
		}
		// A set value goes to its Config field, for settle to judge with
		// the rest; an axis without one is judged here.
		a.patchApply = func(p *PolicyPatch, c *Config) error {
			if v := *patch(p); v != nil && cfg != nil {
				*cfg(c) = *v
			} else if v != nil {
				return judge(*v)
			}
			return nil
		}
	}
	if cfg != nil {
		a.SpecKey = strings.ReplaceAll(a.Key, "-", "_")
		a.SetConfig = func(c *Config, s string) error {
			if s == "" {
				return nil
			}
			v, err := parse(s)
			if err == nil && v != zero {
				*cfg(c) = v
			}
			return err
		}
		a.settle = func(c *Config) error {
			if *cfg(c) == zero && def != zero {
				*cfg(c) = def
			}
			return judge(*cfg(c))
		}
	}
	return a
}

// number binds a numeric axis to the interval values spells.
func number[T ~int | ~uint64 | ~float64](key, values string, def T, doc string, parse func(string) (T, error),
	format func(T) string, patch func(*PolicyPatch) **T, cfg func(*Config) *T) PolicyAxis {
	lo, hi, _ := strings.Cut(values[1:len(values)-1], ",")
	l, _ := strconv.ParseFloat(lo, 64)
	h, _ := strconv.ParseFloat(hi, 64)
	openLo, openHi := values[0] == '(', values[len(values)-1] == ')'
	valid := func(v T) bool { // NaN is in no interval
		f := float64(v)
		return (f > l || !openLo && f == l) && (f < h || !openHi && f == h)
	}
	return bind(PolicyAxis{Key: key, Values: values, Doc: doc}, parse, format, valid, def, patch, cfg)
}

func float(key, values string, def float64, doc string, patch func(*PolicyPatch) **float64, cfg func(*Config) *float64) PolicyAxis {
	return number(key, values, def, doc, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }, patch, cfg)
}

// enum binds a named axis: its values are those whose String parses back.
func enum[T ~int](key, alias, doc string, parse func(string) (T, error), format func(T) string,
	patch func(*PolicyPatch) **T, cfg func(*Config) *T) PolicyAxis {
	valid := func(v T) bool { _, err := parse(format(v)); return err == nil }
	var names []string
	for v := T(0); valid(v); v++ {
		names = append(names, format(v))
	}
	a := PolicyAxis{Key: key, Alias: alias, Values: strings.Join(names, "|"), Zero: "", Doc: doc}
	return bind(a, parse, format, valid, 0, patch, cfg)
}

// policyAxes is the schema, in PolicyPatch.String's order.
var policyAxes = []PolicyAxis{
	enum("selection", "policy", "which servers freeze first; the paper takes the hottest", ParseSelectionPolicy, SelectionPolicy.String,
		func(p *PolicyPatch) **SelectionPolicy { return &p.Selection }, func(c *Config) *SelectionPolicy { return &c.Selection }),
	number("selection-seed", "[0,18446744073709551615]", 0, "seed of the random order's stream",
		func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }, func(v uint64) string { return strconv.FormatUint(v, 10) },
		nil, func(c *Config) *uint64 { return &c.SelectionSeed }),
	enum("et", "", "Et estimator family; a patch gives every domain a cold one, trained from the fork on", ParseEtMode, EtMode.String,
		func(p *PolicyPatch) **EtMode { return &p.EtMode }, func(c *Config) *EtMode { return &c.EtMode }),
	float("et-percentile", "(0,100]", 0, "percentile the static estimator takes of an hour's increases; a patch keeps the observations",
		func(p *PolicyPatch) **float64 { return &p.EtPercentile }, func(c *Config) *float64 { return &c.EtPercentile }),
	float("et-alpha", "(0,1]", 0.25, "EWMA estimator's smoothing factor",
		func(p *PolicyPatch) **float64 { return &p.EtAlpha }, func(c *Config) *float64 { return &c.EtAlpha }),
	float("et-band", "(0,inf)", 3, "EWMA estimator's deviation multiplier",
		func(p *PolicyPatch) **float64 { return &p.EtBand }, func(c *Config) *float64 { return &c.EtBand }),
	float("ramp", "[0,1]", 0, "most the effective budget moves per tick, as a fraction of base; overrides a schedule's, 0 = cliff",
		func(p *PolicyPatch) **float64 { return &p.RampFrac }, nil),
	number("horizon", "[0,inf)", 0, "solver depth N: the closed-form SPCP up to 1, the exact horizon-N PCP above", strconv.Atoi, strconv.Itoa,
		func(p *PolicyPatch) **int { return &p.Horizon }, func(c *Config) *int { return &c.Horizon }),
	float("max-freeze", "(0,1]", 0, "cap on the frozen fraction of a domain",
		func(p *PolicyPatch) **float64 { return &p.MaxFreezeRatio }, func(c *Config) *float64 { return &c.MaxFreezeRatio }),
	float("rstable", "(0,1]", 0, "§3.5 stability ratio: a frozen server leaves the set only below rstable × its coldest member",
		func(p *PolicyPatch) **float64 { return &p.RStable }, func(c *Config) *float64 { return &c.RStable }),
	enum("unfreeze", "", "release path: straight to the solver's target, or gated on spare headroom and gradual", ParseUnfreezeMode, UnfreezeMode.String,
		func(p *PolicyPatch) **UnfreezeMode { return &p.Unfreeze }, func(c *Config) *UnfreezeMode { return &c.Unfreeze }),
	float("headroom-trigger", "(0,1)", 0.05, "spare headroom (1 − Et) − P under which unfreeze=headroom releases nothing",
		func(p *PolicyPatch) **float64 { return &p.HeadroomTrigger }, func(c *Config) *float64 { return &c.HeadroomTrigger }),
	float("headroom-step", "(0,1]", 0.10, "most of a domain unfreeze=headroom releases in one tick",
		func(p *PolicyPatch) **float64 { return &p.HeadroomStepFrac }, func(c *Config) *float64 { return &c.HeadroomStepFrac }),
}

// PolicyAxes returns the schema's rows.
func PolicyAxes() []PolicyAxis { return policyAxes }

// PatchKey is the key PolicyPatch.String prints for the axis.
func (a PolicyAxis) PatchKey() string { return cmp.Or(a.Alias, a.Key) }

// ParsePatch parses the operator-facing alternative-policy syntax of
// `ampere-trace why -alt`, powermon's /whatif?alt= and the tournament grid:
// space- or comma-separated key=value terms over the axes with Patch set.
// The empty string is the empty patch, a self-replay. ParsePatch inverts
// PolicyPatch.String exactly.
func ParsePatch(s string) (PolicyPatch, error) {
	var p PolicyPatch
terms:
	for _, term := range strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' }) {
		key, val, ok := strings.Cut(term, "=")
		if !ok || key == "" {
			return p, fmt.Errorf("core: bad patch term %q, want key=value", term)
		}
		for _, a := range policyAxes {
			if a.Patch && (key == a.Key || key == a.Alias) {
				if err := a.patchParse(&p, val); err != nil {
					return p, fmt.Errorf("core: patch term %q: %w", term, err)
				}
				continue terms
			}
		}
		return p, fmt.Errorf("core: unknown patch key %q", key)
	}
	return p, nil
}
