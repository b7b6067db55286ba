package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sample is a value of the axis inside its range and off its default.
func sample(a PolicyAxis) string {
	switch a.Zero.(type) {
	case string:
		return a.Values[strings.LastIndex(a.Values, "|")+1:]
	case float64:
		return "0.375"
	}
	return "7"
}

// TestSpecAndPatchLandOnTheSameField: an axis set the way a control_policy
// block sets it (SetConfig) and the way a patch does (ParsePatch, Apply)
// changes the same Config field to the same value, and only that field. The
// two axes with one spelling are exactly ramp and the selection seed.
func TestSpecAndPatchLandOnTheSameField(t *testing.T) {
	var oneSided []string
	for _, a := range policyAxes {
		if !a.Patch || a.SpecKey == "" {
			oneSided = append(oneSided, a.Key)
			continue
		}
		bySpec, byPatch := DefaultConfig(), DefaultConfig()
		if err := a.SetConfig(&bySpec, sample(a)); err != nil {
			t.Fatalf("%s: SetConfig(%q): %v", a.SpecKey, sample(a), err)
		}
		p, err := ParsePatch(a.Key + "=" + sample(a))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(&byPatch); err != nil {
			t.Fatal(err)
		}
		if bySpec != byPatch || bySpec == DefaultConfig() {
			t.Errorf("%s: control_policy yields %+v, patch %+v", a.Key, bySpec, byPatch)
		}
		if err := bySpec.Validate(); err != nil {
			t.Errorf("%s=%s: %v", a.Key, sample(a), err)
		}
		// "0 keeps the default", as does a name left empty.
		keep := "0"
		if a.Zero == "" {
			keep = ""
		}
		if err := a.SetConfig(&bySpec, keep); err != nil || bySpec != byPatch {
			t.Errorf("%s: SetConfig(%q) changed the field (%v)", a.SpecKey, keep, err)
		}
	}
	if got := strings.Join(oneSided, " "); got != "selection-seed ramp" {
		t.Errorf("axes with one spelling: %q, want the seed (construction only) and ramp (patch only)", got)
	}
}

// configOnlyFields are the Config fields no policy axis binds: settings a
// scenario or a patch cannot reach, each set differently by two callers.
var configOnlyFields = map[string]bool{
	"EtWindow":   true, // 60 in federate and bench, unbounded elsewhere
	"Resilience": true, // the chaos experiment's drill posture and naive baseline
}

// TestEveryConfigFieldIsDeclared: each Config field is bound by a policyAxes
// row or listed in configOnlyFields, so a new setting is declared on purpose
// rather than added as one more knob.
func TestEveryConfigFieldIsDeclared(t *testing.T) {
	def := DefaultConfig()
	bound := map[string]bool{}
	for _, a := range policyAxes {
		bound[axisField(a, &def)] = true
	}
	typ := reflect.TypeOf(def)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if bound[name] == configOnlyFields[name] {
			t.Errorf("Config.%s: bound by a policy axis %v, on the allow-list %v; want exactly one",
				name, bound[name], configOnlyFields[name])
		}
	}
}

// TestReconfigureRangesUnchanged pins, term by term, what Reconfigure took
// and refused before the ranges moved into the schema: each interval's ends,
// NaN and the infinities, and the zeros that select a default.
func TestReconfigureRangesUnchanged(t *testing.T) {
	accepted := "rstable=1 max-freeze=1 et-percentile=100 et-percentile=0.001 et-alpha=1 et-alpha=0 " +
		"et-band=0 et-band=1e300 headroom-trigger=0 headroom-trigger=0.999 headroom-step=0 headroom-step=1 " +
		"horizon=0 horizon=1 horizon=9999 ramp=0 ramp=1 et=seasonal unfreeze=headroom policy=random"
	rejected := "rstable=0 rstable=1.0000001 rstable=NaN rstable=-0.5 max-freeze=0 max-freeze=1.5 max-freeze=NaN " +
		"et-percentile=0 et-percentile=100.5 et-percentile=NaN et-alpha=1.5 et-alpha=-0.1 et-alpha=NaN " +
		"et-band=-1 et-band=+Inf et-band=NaN headroom-trigger=1 headroom-trigger=-0.1 headroom-trigger=NaN " +
		"headroom-step=1.5 headroom-step=-0.1 headroom-step=NaN horizon=-1 " +
		"ramp=-0.1 ramp=1.1 ramp=NaN ramp=+Inf"
	for want, terms := range map[bool]string{true: accepted, false: rejected} {
		for _, term := range strings.Fields(terms) {
			p, err := ParsePatch(term)
			if err != nil {
				t.Fatal(err)
			}
			if err := newPatchController(t).Reconfigure(p); (err == nil) != want {
				t.Errorf("Reconfigure(%s): %v, want accepted %v", term, err, want)
			}
		}
	}
}

// TestOperationsDocListsEveryAxis: docs/OPERATIONS.md §13 tabulates the
// schema, one row per axis, the way docRow prints it.
func TestOperationsDocListsEveryAxis(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig().withPolicyDefaults()
	for _, a := range policyAxes {
		if row := docRow(a, &def); !strings.Contains(string(doc), row+"\n") {
			t.Errorf("docs/OPERATIONS.md lacks the row\n%s", row)
		}
	}
}

// docRow is an axis's line of the docs/OPERATIONS.md table: patch key(s),
// control_policy key, values, default, meaning.
func docRow(a PolicyAxis, def *Config) string {
	code := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + strings.ReplaceAll(s, "|", "`, `") + "`"
	}
	patchKey, dflt := "", ""
	if a.Patch {
		patchKey = strings.TrimPrefix(a.Alias+"|"+a.Key, "|")
	}
	if f := axisField(a, def); f != "" {
		dflt = fmt.Sprint(reflect.ValueOf(*def).FieldByName(f))
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %s |", code(patchKey), code(a.SpecKey), code(a.Values), code(dflt), a.Doc)
}

// axisField names the Config field the axis's SetConfig changes, "" for an
// axis the controller holds.
func axisField(a PolicyAxis, def *Config) string {
	if a.SetConfig == nil {
		return ""
	}
	probe := *def
	if err := a.SetConfig(&probe, sample(a)); err != nil {
		panic(err)
	}
	was, is := reflect.ValueOf(*def), reflect.ValueOf(probe)
	for i := 0; i < is.NumField(); i++ {
		if !is.Field(i).Equal(was.Field(i)) {
			return is.Type().Field(i).Name
		}
	}
	return ""
}
