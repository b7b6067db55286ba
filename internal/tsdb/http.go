package tsdb

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"repro/internal/sim"
)

// Handler returns the RESTful query API over the database:
//
//	GET /series                          → JSON array of series names
//	GET /query?name=N&from=MS&to=MS      → JSON array of {t, v} points
//	GET /latest?name=N                   → JSON {t, v}
//
// from/to are virtual-time milliseconds; both are optional (default: the
// full retained range). This mirrors the paper's "RESTful API for efficient
// query against these data" (§3.3).
func (db *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /series", func(w http.ResponseWriter, r *http.Request) {
		names := db.Names()
		if names == nil {
			names = []string{}
		}
		writeJSON(w, names)
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name parameter", http.StatusBadRequest)
			return
		}
		from, err := parseTime(r.URL.Query().Get("from"), sim.Time(math.MinInt64))
		if err != nil {
			http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
			return
		}
		to, err := parseTime(r.URL.Query().Get("to"), sim.Time(math.MaxInt64))
		if err != nil {
			http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
			return
		}
		pts := db.Query(name, from, to)
		if pts == nil {
			pts = []Point{}
		}
		writeJSON(w, pts)
	})
	mux.HandleFunc("GET /latest", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name parameter", http.StatusBadRequest)
			return
		}
		p, ok := db.Latest(name)
		if !ok {
			http.Error(w, "no such series: "+name, http.StatusNotFound)
			return
		}
		writeJSON(w, p)
	})
	return mux
}

func parseTime(s string, def sim.Time) (sim.Time, error) {
	if s == "" {
		return def, nil
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return sim.Time(ms), nil
}

// writeJSON marshals v before touching the response, so an encoding failure
// (e.g. a NaN sample value, which encoding/json rejects) becomes a clean 500
// instead of a truncated 200 with the status line already committed.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}
