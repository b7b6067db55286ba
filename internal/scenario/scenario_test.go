package scenario

import (
	"math"
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Seed: 1, Rows: 2, RowServers: 40, Hours: 2,
		TargetFrac: 0.75, RO: 0.25, WarmupHours: 1,
	}
}

func TestLoadJSON(t *testing.T) {
	js := `{
		"seed": 7, "rows": 2, "row_servers": 40, "hours": 3,
		"target_frac": 0.72, "ro": 0.25,
		"ampere": true, "capping": true, "breaker": true,
		"row_chooser": "concentrate-rows"
	}`
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || !s.Ampere || s.RowShaping != "concentrate-rows" {
		t.Errorf("parsed spec %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"rows": 2, "typo_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{bad json`)); err == nil {
		t.Error("bad json accepted")
	}
}

func TestValidate(t *testing.T) {
	mutations := []func(*Spec){
		func(s *Spec) { s.Rows = 0 },
		func(s *Spec) { s.RowServers = 30 }, // not multiple of 20
		func(s *Spec) { s.Hours = 0 },
		func(s *Spec) { s.RO = -1 },
		func(s *Spec) { s.TargetFrac = 0 },
		func(s *Spec) { s.TargetFrac = 1.5 },
		func(s *Spec) { s.Kr = -1 },
		func(s *Spec) { s.RowShaping = "nope" },
		func(s *Spec) { s.Hours = 3000000000000 },       // end time wrapped negative
		func(s *Spec) { s.WarmupHours = 3000000000000 }, // warm-up wrapped negative
		func(s *Spec) { s.WarmupHours = -5 },            // silently ran the default
		func(s *Spec) { s.RepairMinutes = -3 },          // silently ran the default
		func(s *Spec) { s.Products = []Product{{Name: "x"}} },
		func(s *Spec) { s.Products = []Product{{Name: "x", TargetFrac: 0.7, RowWeights: []float64{1}}} },
		func(s *Spec) { s.Products = []Product{{Name: "x", TargetFrac: 0.7, RowWeights: []float64{-1, 1}}} },
		func(s *Spec) { s.Amplitude = 5 }, // raised the mean load above target_frac
		func(s *Spec) { s.Amplitude = math.NaN() },
		func(s *Spec) { s.Products = []Product{{Name: "x", TargetFrac: 0.7, Amplitude: 1.5}} },
	}
	for i, mutate := range mutations {
		s := validSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestBuildAndRunMinimal(t *testing.T) {
	s := validSpec()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Controller != nil || b.Capper != nil || b.Breakers != nil {
		t.Error("protections built without being requested")
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	b.Report(&sb)
	out := sb.String()
	for _, want := range []string{"scenario:", "row 0:", "row 1:", "scheduler:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if b.Rig.Sched.Stats().Completed == 0 {
		t.Error("no jobs completed")
	}
}

func TestBuildFullStack(t *testing.T) {
	s := validSpec()
	s.Ampere = true
	s.Capping = true
	s.Breaker = true
	s.RowShaping = "balance-rows"
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Controller == nil || b.Capper == nil || len(b.Breakers) != 2 {
		t.Fatal("protections missing")
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	b.Report(&sb)
	if !strings.Contains(sb.String(), "ampere:") || !strings.Contains(sb.String(), "capping:") {
		t.Errorf("report missing protection lines:\n%s", sb.String())
	}
	// With moderate load and protections, nothing trips.
	for r, brk := range b.Breakers {
		if tripped, _ := brk.Tripped(); tripped {
			t.Errorf("row %d breaker tripped", r)
		}
	}
}

func TestBuildExplicitProducts(t *testing.T) {
	s := validSpec()
	s.TargetFrac = 0
	s.Products = []Product{
		{Name: "pinned", TargetFrac: 0.7, RowWeights: []float64{1, 0}},
		{Name: "floating", JobsPerMinute: 20},
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Rig.Gen.Generated() == 0 {
		t.Error("no jobs generated")
	}
}

// System-level determinism: the same spec produces byte-identical reports.
func TestScenarioDeterminism(t *testing.T) {
	run := func() string {
		s := validSpec()
		s.Ampere = true
		s.Capping = true
		b, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		b.Report(&sb)
		return sb.String()
	}
	a, bb := run(), run()
	if a != bb {
		t.Errorf("reports differ:\n--- first\n%s\n--- second\n%s", a, bb)
	}
}
