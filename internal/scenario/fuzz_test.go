package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzLoad feeds arbitrary bytes through the JSON loader and, when a spec
// parses, through validation and a marshal round-trip. Malformed or hostile
// configs must come back as errors — never panics — and an accepted spec
// must survive re-encoding and end its run after a positive warm-up.
func FuzzLoad(f *testing.F) {
	f.Add(`{"seed":1,"rows":2,"row_servers":40,"hours":24,"target_frac":0.6,"ro":0.25,"ampere":true}`)
	f.Add(`{"rows":1,"row_servers":20,"hours":1,"products":[{"name":"web","jobs_per_minute":50}]}`)
	f.Add(`{"rows":-3,"row_servers":7,"hours":0}`)
	f.Add(`{"unknown_field":true}`)
	f.Add(`{"rows":1e309}`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`{"rows":1,"row_servers":20,"hours":1,"target_frac":0.5,"policy":"no-such-policy"}`)
	f.Add(`{"rows":2,"row_servers":20,"hours":1,"target_frac":0.5,"products":[{"row_weights":[1]}]}`)

	f.Fuzz(func(t *testing.T, in string) {
		s, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("Load returned nil spec and nil error")
		}
		if err := s.Validate(); err != nil {
			return
		}
		if warmup, end := s.window(); warmup <= 0 || end <= sim.Time(warmup) {
			t.Fatalf("accepted spec runs from warm-up %v to %v", warmup, end)
		}
		// A spec that parsed and validated must round-trip through JSON to
		// an equally valid spec.
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("cannot re-marshal accepted spec: %v", err)
		}
		s2, err := Load(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-parse of accepted spec failed: %v\n%s", err, blob)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v\n%s", err, blob)
		}
	})
}

// FuzzBudgetSchedule drives the PM(t) surface: arbitrary JSON is decoded as
// a spec, and whenever the spec validates, its budget schedule must compile
// — for every row — into a core.BudgetSchedule that satisfies core's own
// invariants (strictly increasing step times, positive budgets, ramp in
// [0,1]). A validated spec that fails to compile is a seam bug between the
// two validation layers.
func FuzzBudgetSchedule(f *testing.F) {
	f.Add(`{"rows":2,"row_servers":40,"hours":2,"target_frac":0.6,"ampere":true,
		"budget_schedule":{"ramp_frac":0.02,"steps":[{"at_minutes":30,"frac":0.8},{"at_minutes":90,"frac":1}]}}`)
	f.Add(`{"rows":3,"row_servers":40,"hours":2,"target_frac":0.6,"ampere":true,
		"demand_response":[{"at_minutes":15,"depth":0.2,"dwell_minutes":60,"rows":[0,2]}]}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"budget_schedule":{"steps":[{"at_minutes":10,"frac":0.9}]},
		"demand_response":[{"at_minutes":5,"depth":0.5,"dwell_minutes":20},{"at_minutes":10,"depth":0.1,"dwell_minutes":5,"rows":[1]}]}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"budget_schedule":{"ramp_frac":1}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"demand_response":[{"at_minutes":0.0001,"depth":0.999,"dwell_minutes":0.0002}]}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,
		"budget_schedule":{"ramp_frac":0.02}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"budget_schedule":{"steps":[{"at_minutes":1e308,"frac":0.5}]}}`)

	f.Fuzz(func(t *testing.T, in string) {
		s, err := Load(strings.NewReader(in))
		if err != nil || s.Validate() != nil {
			return
		}
		const budgetW = 1000.0
		for _, warmup := range []sim.Duration{sim.Hour, 30 * sim.Minute} {
			for r := 0; r < s.Rows; r++ {
				cs := s.compileBudgetSchedule(r, budgetW, warmup)
				if cs == nil {
					continue
				}
				if err := cs.Validate(budgetW); err != nil {
					t.Fatalf("validated spec compiled to invalid schedule (row %d): %v\nspec: %s", r, err, in)
				}
				for i, st := range cs.Steps {
					if st.At < sim.Time(warmup) {
						t.Fatalf("step %d at %v precedes warmup %v", i, st.At, warmup)
					}
				}
			}
		}
	})
}

// FuzzPolicySpec drives the control_policy surface: arbitrary JSON is
// decoded as a spec, and whenever the spec validates — which is core's own
// Validate judging the configuration the block yields — the block must
// survive a marshal round-trip to a spec that yields the same configuration.
func FuzzPolicySpec(f *testing.F) {
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"selection":"coldest","et":"ewma","et_alpha":0.5,"et_band":2}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"selection":"random","selection_seed":7,"unfreeze":"headroom",
		"headroom_trigger":0.05,"headroom_step":0.1}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"et":"seasonal","horizon":5,"max_freeze":0.4,"rstable":0.7}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"et_percentile":95}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,
		"control_policy":{"selection":"hottest"}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"selection":"warmest"}}`)
	f.Add(`{"rows":2,"row_servers":40,"hours":1,"target_frac":0.5,"ampere":true,
		"control_policy":{"et_alpha":1e308,"horizon":-1}}`)

	f.Fuzz(func(t *testing.T, in string) {
		s, err := Load(strings.NewReader(in))
		if err != nil || s.Validate() != nil {
			return
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("cannot re-marshal accepted spec: %v", err)
		}
		s2, err := Load(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-parse of accepted spec failed: %v\n%s", err, blob)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("round-tripped spec no longer validates: %v\n%s", err, blob)
		}
		want, _ := s.ControlPolicy.config()
		if got, _ := s2.ControlPolicy.config(); got != want {
			t.Fatalf("round-tripped control_policy yields %+v, want %+v\n%s", got, want, blob)
		}
	})
}
