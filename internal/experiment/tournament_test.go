package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// smokeTournament is the tier-1 configuration: the 400-server quick grid
// with a 5-entry patch subset (baseline + one policy per axis). `make
// tournament-smoke` runs exactly TestTournamentSmoke400.
func smokeTournament() TournamentConfig {
	cfg := quickConfig[TournamentConfig]("tournament")
	cfg.Grid.Rows = 5 // 5 × 80 = 400 servers
	cfg.Patches = []string{
		"",
		"policy=coldest",
		"et=ewma",
		"unfreeze=headroom",
		"policy=random et=seasonal",
	}
	return cfg
}

// TestTournamentSmoke400: the quick tournament ranks deterministically, the
// baseline self-replay is byte-identical, and the rendered table and JSON are
// byte-identical at GOMAXPROCS 1 and 4 (the §7 contract extended across
// fanned-out replays).
func TestTournamentSmoke400(t *testing.T) {
	cfg := smokeTournament()
	run := func() [2]string {
		res, err := RunTournament(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BaselineIdentical {
			t.Fatal("baseline self-replay diverged")
		}
		if len(res.Rows) != len(cfg.Patches) {
			t.Fatalf("ranked %d rows, want %d", len(res.Rows), len(cfg.Patches))
		}
		for i, r := range res.Rows {
			if r.Rank != i+1 {
				t.Fatalf("row %d has rank %d", i, r.Rank)
			}
		}
		var text, js bytes.Buffer
		FormatTournament(&text, res)
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return [2]string{text.String(), js.String()}
	}
	out1, out4 := atOneAndFour(run)
	text1 := out1[0]
	if text1 != out4[0] {
		t.Errorf("text output differs between GOMAXPROCS 1 and 4:\n--- 1:\n%s\n--- 4:\n%s", text1, out4[0])
	}
	if out1[1] != out4[1] {
		t.Errorf("JSON output differs between GOMAXPROCS 1 and 4")
	}
	if !strings.Contains(text1, "(baseline)") {
		t.Errorf("table lacks the baseline row:\n%s", text1)
	}
}

// TestDefaultTournamentGrid: the standard contender list covers every policy
// axis the issue names — all three selectors, all three Et estimators, the
// headroom release path, and a horizon-N solver — and ranks more than six
// entries.
func TestDefaultTournamentGrid(t *testing.T) {
	cfg := DefaultTournament()
	if len(cfg.Patches) < 6 {
		t.Fatalf("default grid has %d patches, want >= 6", len(cfg.Patches))
	}
	joined := strings.Join(cfg.Patches, "\n")
	for _, want := range []string{
		"policy=coldest", "policy=random",
		"et=static", "et=ewma", "et=seasonal",
		"unfreeze=headroom", "horizon=5", "ramp=",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("default grid lacks %q:\n%s", want, joined)
		}
	}
}

// TestTournamentRejectsBadPatch: the grid is parsed before any replay runs.
func TestTournamentRejectsBadPatch(t *testing.T) {
	cfg := smokeTournament()
	cfg.Patches = append(cfg.Patches, "policy=warmest")
	if _, err := RunTournament(cfg); err == nil {
		t.Fatal("bad patch accepted")
	}
	cfg.Patches = nil
	if _, err := RunTournament(cfg); err == nil {
		t.Fatal("empty grid accepted")
	}
}
