package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// maxWhatifMinutes bounds one /whatif replay: a counterfactual rebuilds the
// simulation from genesis, so its cost grows with the live run's age, not
// with the fork-to-end window.
const maxWhatifMinutes = 48 * 60

// whatifServer serves GET /whatif: fork the live run at a journal event and
// replay it offline with an alternative policy, returning the scored diff.
//
//	curl 'http://localhost:8080/whatif'                        # fork at first budget-change, ramped-budget alt
//	curl 'http://localhost:8080/whatif?event=120&alt=policy=coldest,ramp=0.02'
//	curl 'http://localhost:8080/whatif?event=120&horizon=90'   # replay 90 min past the fork
//
// The replay runs on a freshly built offline copy of the stack (same seed and
// wiring), so the live simulation never pauses; one replay runs at a time
// (409 when busy).
type whatifServer struct {
	mu      sync.Mutex // serializes replays; TryLock → 409
	cfg     runConfig
	journal *obs.Journal
	met     *whatif.Metrics
	now     func() sim.Time // live simulation time (minute-aligned)
}

// builder returns a whatif.Builder that reconstructs the live stack offline,
// running to end. The offline journal retains every event, so seqs line up
// with the live journal even after the live ring has evicted.
func (ws *whatifServer) builder(end sim.Time) whatif.Builder {
	cfg := ws.cfg
	return func() (*whatif.Instance, error) {
		f, err := buildStack(cfg, nil, fleet.RunJournal(cfg.rows, end))
		if err != nil {
			return nil, err
		}
		return f.Instance(end, fmt.Sprintf("powermon seed=%d rows=%dx%d target=%g ro=%g dr=%g/%g/%g/%g",
			cfg.seed, cfg.rows, cfg.rowServers, cfg.target, cfg.ro,
			cfg.drAt, cfg.drDepth, cfg.drDwell, cfg.drRamp)), nil
	}
}

// whatifError is the endpoint's JSON error shape.
func whatifError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (ws *whatifServer) handle(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	// Locate the fork event in the live journal.
	var fork obs.Event
	if s := q.Get("event"); s != "" {
		seq, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			whatifError(w, http.StatusBadRequest, "bad event %q: %v", s, err)
			return
		}
		// One read: the live run appends and evicts concurrently, and Since
		// clamps an evicted seq to the oldest retained event.
		evs := ws.journal.Since(seq)
		if len(evs) == 0 {
			whatifError(w, http.StatusNotFound, "event %d not yet journaled", seq)
			return
		}
		if evs[0].Seq != seq {
			whatifError(w, http.StatusGone, "event %d evicted from the journal ring (oldest retained %d)", seq, evs[0].Seq)
			return
		}
		fork = evs[0]
	} else if ev, found := whatif.FirstBudgetChange(ws.journal.Since(0)); found {
		fork = ev
	} else {
		whatifError(w, http.StatusNotFound, "no budget-change event in the retained journal; pass ?event=N")
		return
	}

	patch, err := core.ParsePatch(q.Get("alt"))
	if err != nil {
		whatifError(w, http.StatusBadRequest, "%v", err)
		return
	}

	forkT := sim.Time(fork.SimMS)
	end := ws.now()
	if s := q.Get("horizon"); s != "" {
		m, err := strconv.Atoi(s)
		if err != nil || m < 1 {
			whatifError(w, http.StatusBadRequest, "bad horizon %q (want minutes ≥ 1)", s)
			return
		}
		// Compare before multiplying: a huge m would wrap. A horizon that
		// reaches past the live time replays to now.
		if left := end.Sub(forkT); sim.Duration(m) <= left/sim.Minute {
			end = forkT.Add(sim.Duration(m) * sim.Minute)
		}
	}
	if end <= forkT {
		whatifError(w, http.StatusUnprocessableEntity,
			"live simulation (%s) has not advanced past the fork event (%s)", end, forkT)
		return
	}
	if end > sim.Time(maxWhatifMinutes)*sim.Time(sim.Minute) {
		whatifError(w, http.StatusUnprocessableEntity,
			"replay would re-simulate %s from genesis, above the %d-minute limit", end, maxWhatifMinutes)
		return
	}

	if !ws.mu.TryLock() {
		whatifError(w, http.StatusConflict, "a replay is already running; retry shortly")
		return
	}
	defer ws.mu.Unlock()

	eng := &whatif.Engine{Build: ws.builder(end), Met: ws.met}
	fact, err := eng.Baseline(forkT)
	if err != nil {
		whatifError(w, http.StatusInternalServerError, "factual replay: %v", err)
		return
	}
	alt, err := eng.Replay(fact.Snap, patch)
	if err != nil {
		whatifError(w, http.StatusInternalServerError, "counterfactual replay: %v", err)
		return
	}
	rep := whatif.Diff(fact.View(sim.Minute), alt.View(sim.Minute), fork.SimMS, patch.String())

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Report        *whatif.Report `json:"report"`
		ForkSeq       uint64         `json:"fork_seq"`
		EndMS         int64          `json:"end_ms"`
		SnapshotBytes int            `json:"snapshot_bytes"`
		FactualSecs   float64        `json:"factual_replay_seconds"`
		AltSecs       float64        `json:"alt_replay_seconds"`
	}{rep, fork.Seq, int64(end), fact.SnapshotBytes, fact.Elapsed.Seconds(), alt.Elapsed.Seconds()})
}
