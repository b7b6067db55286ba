package main

import "fmt"

// params are the sizes of one run. They are a function of -scale and
// -seconds alone, so two runs with the same flags do the same simulated work
// and their fingerprints can be compared. Window lengths are simulated work
// sized to take about -seconds of wall-clock on the 2-core reference box at
// the baseline commit; fleet sizes never move, because they set the cache
// regime each workload exists to measure.
type params struct {
	Rows       int `json:"rows,omitempty"`
	RowServers int `json:"row_servers,omitempty"`
	DCs        int `json:"dcs,omitempty"`
	RowsPerDC  int `json:"rows_per_dc,omitempty"`
	Servers    int `json:"servers"`
	// Warmup and Window count control intervals: simulated minutes, epochs
	// on fed8_sun, Sweep+Step loops on ctl1m_loop.
	Warmup int `json:"warmup"`
	Window int `json:"window"`
	// EventAt and RestoreAt are the window intervals at which every fourth
	// row's budget is cut by a fifth and given back.
	EventAt   int `json:"event_at,omitempty"`
	RestoreAt int `json:"restore_at,omitempty"`

	Target     float64 `json:"target,omitempty"`      // load, fraction of rated power
	Amplitude  float64 `json:"amplitude,omitempty"`   // diurnal swing of the arrival rate
	BudgetFrac float64 `json:"budget_frac,omitempty"` // row budget, fraction of rated power
	Retention  int     `json:"retention"`             // TSDB points per series, 0 = unlimited
	EtWindow   int     `json:"et_window"`             // samples per Et hour bin, 0 = unlimited

	ServiceRows  int `json:"service_rows,omitempty"`
	ServiceUsers int `json:"service_users,omitempty"`

	Setups    int `json:"setups"`     // set-ups an untraced run times
	SpanEvery int `json:"span_every"` // control intervals per trace bucket
}

// spec is one workload: what it is for, how big it is, and how to build it.
type spec struct {
	name   string
	why    string
	params func(scale string, seconds int) params
	setup  func(p params, seed uint64, tr *tracer) (instance, error)
}

func smoke(scale string) bool { return scale == "smoke" }

var workloads = []*spec{
	{
		name: "rows4_week",
		why:  "paper rig: 4 rows x 400 servers, diurnal batch load for days; cache-resident, so cost per event and per job",
		params: func(scale string, seconds int) params {
			p := params{Rows: 4, RowServers: 400, Warmup: 120, Window: 600 * seconds,
				Target: 0.74, Amplitude: 0.30, BudgetFrac: 0.80, Setups: 5, SpanEvery: 60}
			if smoke(scale) {
				p.Rows, p.RowServers, p.Warmup, p.Window, p.Setups = 2, 80, 30, 120*seconds, 2
			}
			p.Servers = p.Rows * p.RowServers
			return p
		},
		setup: setupSim,
	},
	{
		name: "dc100k_storm",
		why:  "deployment scale: 250 rows x 400 servers in one engine, a budget cut on every 4th row; cache-cold placement and events",
		params: func(scale string, seconds int) params {
			p := params{Rows: 250, RowServers: 400, Warmup: 20, Window: 2 * seconds,
				Target: 0.76, BudgetFrac: 0.90, Retention: 64, EtWindow: 60, Setups: 1, SpanEvery: 1}
			if smoke(scale) {
				p.Rows, p.RowServers, p.Warmup, p.Window = 8, 80, 20, 18*seconds
			}
			p.Servers = p.Rows * p.RowServers
			p.EventAt, p.RestoreAt = p.Window/6, p.Window*2/3
			return p
		},
		setup: setupSim,
	},
	{
		name: "fed8_sun",
		why:  "follow-the-sun federation: 8 shards x 12,800 servers on all cores; the sharded twin of dc100k_storm, epoch phases and runner.Loop",
		params: func(scale string, seconds int) params {
			p := params{DCs: 8, RowsPerDC: 32, RowServers: 400, Warmup: 10, Window: 7 * seconds,
				Retention: 64, EtWindow: 60, Setups: 1, SpanEvery: 1}
			if smoke(scale) {
				p.DCs, p.RowsPerDC, p.Window = 4, 1, 12*seconds
			}
			p.Servers = p.DCs * p.RowsPerDC * p.RowServers
			return p
		},
		setup: setupFed,
	},
	{
		name: "ctl1m_loop",
		why:  "control plane alone at 1M servers: Sweep then Step per minute on a static fleet, no jobs; monitor and tsdb cost, what production Ampere pays",
		params: func(scale string, seconds int) params {
			p := params{Rows: 2500, RowServers: 400, Warmup: 130, Window: 20 * seconds,
				BudgetFrac: 0.90, Retention: 64, EtWindow: 60, Setups: 1, SpanEvery: 1}
			if smoke(scale) {
				p.Rows, p.RowServers = 8, 80
			}
			p.Servers = p.Rows * p.RowServers
			p.EventAt, p.RestoreAt = p.Window/10, p.Window*6/10
			return p
		},
		setup: setupLoop,
	},
	{
		name: "svc_slo",
		why:  "Fig 11 at a tenth of deployment scale: service replay under DVFS capping, then under Ampere; service and capping layers, little batch",
		params: func(scale string, seconds int) params {
			p := params{Rows: 50, RowServers: 400, ServiceRows: 10, ServiceUsers: 600_000,
				Warmup: 30, Window: 3 * seconds / 2, Setups: 1, SpanEvery: 1}
			if smoke(scale) {
				p.Rows, p.RowServers, p.ServiceRows, p.ServiceUsers, p.Warmup, p.Window = 3, 80, 1, 30_000, 10, 14+seconds
			}
			p.Servers = p.Rows * p.RowServers
			return p
		},
		setup: setupSvc,
	},
}

func findWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
