package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestControlPolicyBlockBuilds(t *testing.T) {
	spec, err := Load(strings.NewReader(`{
		"seed": 5, "rows": 2, "row_servers": 40, "hours": 1, "warmup_hours": 1,
		"target_frac": 0.6, "ro": 0.25, "ampere": true,
		"control_policy": {"selection": "coldest", "et": "ewma", "et_alpha": 0.5,
			"unfreeze": "headroom", "horizon": 3}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Controller == nil {
		t.Fatal("no controller built")
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	st := b.Controller.Stats(0)
	if st.Ticks == 0 {
		t.Error("controller never ticked")
	}
}

func TestControlPolicyValidation(t *testing.T) {
	base := `{"rows": 2, "row_servers": 40, "hours": 1, "target_frac": 0.5`
	cases := []struct {
		name, tail string
	}{
		{"requires-ampere", `, "control_policy": {"selection": "hottest"}}`},
		{"bad-selection", `, "ampere": true, "control_policy": {"selection": "warmest"}}`},
		{"bad-et", `, "ampere": true, "control_policy": {"et": "arima"}}`},
		{"bad-unfreeze", `, "ampere": true, "control_policy": {"unfreeze": "never"}}`},
		{"bad-alpha", `, "ampere": true, "control_policy": {"et_alpha": 2}}`},
		{"bad-percentile", `, "ampere": true, "control_policy": {"et_percentile": 101}}`},
		{"bad-horizon", `, "ampere": true, "control_policy": {"horizon": -1}}`},
		{"bad-trigger", `, "ampere": true, "control_policy": {"headroom_trigger": 1.5}}`},
		{"unknown-key", `, "ampere": true, "control_policy": {"frobnicate": 1}}`},
	}
	for _, c := range cases {
		spec, err := Load(strings.NewReader(base + c.tail))
		if err == nil {
			err = spec.Validate()
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Every axis core.Config holds is a control_policy key: set in a document it
// lands where core's own SetConfig puts it, a zero (a name left empty) keeps
// the default, and an axis the controller holds — ramp, which a scenario
// sets through budget_schedule — is no key at all.
func TestControlPolicyKeysAreTheSchemas(t *testing.T) {
	load := func(block string) (*Spec, error) {
		spec, err := Load(strings.NewReader(
			`{"rows": 2, "row_servers": 40, "hours": 1, "target_frac": 0.5, "ampere": true, "control_policy": {` + block + `}}`))
		if err == nil {
			err = spec.Validate()
		}
		return spec, err
	}
	for _, a := range core.PolicyAxes() {
		if a.SpecKey == "" {
			if _, err := load(fmt.Sprintf(`%q: 0.5`, a.Key)); err == nil {
				t.Errorf("control_policy took %q, which Config does not hold", a.Key)
			}
			continue
		}
		// text is a value in range and off the default; value and zero are
		// it and "keep the default" as a document writes them.
		text, zero := "0.375", "0"
		switch a.Zero.(type) {
		case string:
			text, zero = a.Values[strings.LastIndex(a.Values, "|")+1:], `""`
		case int, uint64:
			text = "7"
		}
		value := text
		if a.Zero == "" {
			value = strconv.Quote(text)
		}
		want := core.DefaultConfig()
		if err := a.SetConfig(&want, text); err != nil {
			t.Fatal(err)
		}
		spec, err := load(fmt.Sprintf(`%q: %s`, a.SpecKey, value))
		if err != nil {
			t.Errorf("%s: %v", a.SpecKey, err)
			continue
		}
		if got, _ := spec.ControlPolicy.config(); got != want || got == core.DefaultConfig() {
			t.Errorf("%s=%s yields %+v, want %+v", a.SpecKey, value, got, want)
		}
		spec, err = load(fmt.Sprintf(`%q: %s`, a.SpecKey, zero))
		if err != nil {
			t.Errorf("%s: %s: %v", a.SpecKey, zero, err)
		} else if got, _ := spec.ControlPolicy.config(); got != core.DefaultConfig() {
			t.Errorf("%s=%s moved the default: %+v", a.SpecKey, zero, got)
		}
	}
}
