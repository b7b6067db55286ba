package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/core"
)

// PolicySpec is the scenario-file form of the controller's policy axes (the
// `control_policy` block; the top-level `policy` key names the scheduler
// placement policy and predates it). Its keys are core.PolicyAxes' SpecKeys;
// a zero or absent value keeps the paper's default, so a spec only states
// what it changes:
//
//	"control_policy": {"selection": "coldest", "et": "ewma", "et_alpha": 0.5}
type PolicySpec struct {
	block any // a *blockType, once decoded
}

// blockType is the block as encoding/json sees it, a struct with one field
// per axis that core.Config holds — an enum's name as a string, a number as
// the type Config has it in — tagged with the axis's SpecKey. Decoding and
// printing the block are then the library's, with its rules for unknown,
// repeated and mistyped keys, and a new axis needs no line here.
var blockType = func() reflect.Type {
	var fields []reflect.StructField
	for i, a := range core.PolicyAxes() {
		if a.SpecKey == "" {
			continue
		}
		fields = append(fields, reflect.StructField{Name: blockField(i), Type: reflect.TypeOf(a.Zero),
			Tag: reflect.StructTag(fmt.Sprintf(`json:"%s,omitempty"`, a.SpecKey))})
	}
	return reflect.StructOf(fields)
}()

// blockField names blockType's field for core.PolicyAxes()[i].
func blockField(i int) string { return fmt.Sprintf("Axis%d", i) }

func (p *PolicySpec) UnmarshalJSON(b []byte) error {
	if p.block == nil {
		p.block = reflect.New(blockType).Interface()
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(p.block)
}

func (p PolicySpec) MarshalJSON() ([]byte, error) { return json.Marshal(p.block) }

// config lays the block (nil: nothing) over the paper's defaults. A name no
// enum has is the only error; ranges are core.Config.Validate's, which
// judges the whole, so a scenario cannot hold what core.New would reject.
func (p *PolicySpec) config() (core.Config, error) {
	cfg := core.DefaultConfig()
	if p == nil || p.block == nil {
		return cfg, nil
	}
	block := reflect.ValueOf(p.block).Elem()
	for i, a := range core.PolicyAxes() {
		if a.SpecKey == "" {
			continue
		}
		if err := a.SetConfig(&cfg, fmt.Sprint(block.FieldByName(blockField(i)))); err != nil {
			return cfg, fmt.Errorf("scenario: control_policy %s: %w", a.SpecKey, err)
		}
	}
	return cfg, nil
}
