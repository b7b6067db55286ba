package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// newWhatifServer builds a 1-row × 40-server controlled powermon stack with
// a journal of journalCap events, runs it for the given simulated minutes on
// the test goroutine (standing in for the live loop), and serves /whatif
// over it.
func newWhatifServer(t *testing.T, journalCap int, minutes int64) *whatifServer {
	t.Helper()
	cfg := runConfig{rows: 1, rowServers: 40, target: 0.75, ro: 0.25, ampere: true,
		seed: 1, obs: true, journalCap: journalCap}
	reg, journal := obs.NewRegistry(), obs.NewJournal(journalCap)
	sk, err := buildStack(cfg, reg, journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Rig.Run(sim.Time(minutes) * sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	return &whatifServer{cfg: cfg, journal: journal, met: whatif.NewMetrics(reg),
		now: sk.Rig.Eng.Now}
}

func getWhatif(ws *whatifServer, query string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	ws.handle(rec, httptest.NewRequest(http.MethodGet, "/whatif?"+query, nil))
	return rec
}

// TestWhatifStatusCodes walks /whatif through each of its answers. The
// eviction check reads the journal once (Since), so an event the live loop
// evicts between the request and the read is answered 410 rather than
// silently forked at the oldest retained event; that race cannot be forced
// deterministically here, and the single read closes it by construction.
func TestWhatifStatusCodes(t *testing.T) {
	ws := newWhatifServer(t, 0, 30)
	total := ws.journal.Total()
	if total < 20 {
		t.Fatalf("journal holds %d events after 30 minutes, want a decision per tick", total)
	}
	event := ws.journal.Since(total / 2)[0]
	forkQuery := fmt.Sprintf("event=%d&horizon=5", event.Seq)

	if rec := getWhatif(ws, "event=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad event: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if rec := getWhatif(ws, fmt.Sprintf("event=%d", total)); rec.Code != http.StatusNotFound {
		t.Errorf("unjournaled event: status %d, want 404: %s", rec.Code, rec.Body)
	}

	ws.mu.Lock()
	rec := getWhatif(ws, forkQuery)
	ws.mu.Unlock()
	if rec.Code != http.StatusConflict {
		t.Errorf("replay running: status %d, want 409: %s", rec.Code, rec.Body)
	}

	live := ws.now
	ws.now = func() sim.Time { return sim.Time(event.SimMS) }
	if rec := getWhatif(ws, forkQuery); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("live run not past the fork: status %d, want 422: %s", rec.Code, rec.Body)
	}
	ws.now = live

	rec = getWhatif(ws, forkQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("fork at event %d: status %d, want 200: %s", event.Seq, rec.Code, rec.Body)
	}
	var body struct {
		ForkSeq uint64 `json:"fork_seq"`
		EndMS   int64  `json:"end_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.ForkSeq != event.Seq {
		t.Errorf("forked at event %d, requested %d", body.ForkSeq, event.Seq)
	}
	if want := int64(sim.Time(event.SimMS).Add(5 * sim.Minute)); body.EndMS != want {
		t.Errorf("replay ended at %d ms, want the 5-minute horizon %d", body.EndMS, want)
	}

	// A horizon past the live time replays to now, however large: minutes
	// that would wrap when multiplied out are compared, not multiplied.
	for _, horizon := range []string{"9223372036854775807", "307445734561826"} {
		rec := getWhatif(ws, fmt.Sprintf("event=%d&horizon=%s", event.Seq, horizon))
		if rec.Code != http.StatusOK {
			t.Errorf("horizon %s: status %d, want 200: %s", horizon, rec.Code, rec.Body)
			continue
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if want := int64(ws.now()); body.EndMS != want {
			t.Errorf("horizon %s: replay ended at %d ms, want the live time %d", horizon, body.EndMS, want)
		}
	}
}

// TestWhatifEvictedEventIsGone: with a small journal ring the first events
// are overwritten, and asking to fork at one answers 410.
func TestWhatifEvictedEventIsGone(t *testing.T) {
	ws := newWhatifServer(t, 8, 30)
	if ws.journal.OldestSeq() == 0 {
		t.Fatal("8-event journal evicted nothing in 30 minutes")
	}
	if rec := getWhatif(ws, "event=0"); rec.Code != http.StatusGone {
		t.Errorf("evicted event: status %d, want 410: %s", rec.Code, rec.Body)
	}
}
