package experiment

import "testing"

func TestSpreadValidation(t *testing.T) {
	cfg := DefaultSpread()
	cfg.Rows = 1
	if _, err := RunSpread(cfg); err == nil {
		t.Error("single-row spreading accepted")
	}
}
