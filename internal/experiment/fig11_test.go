package experiment

import "testing"

func TestFig11Validation(t *testing.T) {
	cfg := DefaultFig11()
	cfg.ServiceServers = 0
	if _, err := RunFig11(cfg); err == nil {
		t.Error("zero service servers accepted")
	}
	cfg = DefaultFig11()
	cfg.ServiceServers = cfg.RowServers + 1
	if _, err := RunFig11(cfg); err == nil {
		t.Error("more service servers than row accepted")
	}
}
