# Tier-1 is the merge gate: everything must build, lint clean (gofmt + vet),
# pass the full suite under the race detector, and pass the experiment, fleet +
# runner suites with shuffled test order (order-dependence is how shared
# state between parallel run units would first show up).
.PHONY: tier1 build lint vet test race race-shuffle fuzz fuzz-smoke chaos \
	bench-runner gridstorm \
	whatif-smoke tournament tournament-smoke fig11scale \
	fed-smoke golden-quick golden-paper flake bench-pair bench-pair-all lines \
	mains-pinned

tier1: build lint race race-shuffle fuzz-smoke whatif-smoke \
	tournament-smoke fed-smoke golden-quick flake mains-pinned

build:
	go build ./...

# lint fails when any file needs reformatting (gofmt -l prints it) or vet
# finds a problem.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	go vet ./...

vet:
	go vet ./...

test:
	go test ./...

# cmd/ampere-exp runs -short here: its TestQuickAllGolden replays every quick
# experiment (~16 s plain, minutes under the race detector) and rides tier1
# un-raced as golden-quick instead.
race:
	go test -race $$(go list ./... | grep -v /cmd/ampere-exp$$)
	go test -race -short ./cmd/ampere-exp

# The parallel fan-out suites, shuffled: any cross-unit state dependence
# fails here before it can corrupt merged experiment output.
race-shuffle:
	go test -race -shuffle=on ./internal/experiment/... ./internal/fleet/... ./internal/runner/...

# Every program under cmd/ and examples/ has a test of what it prints: this
# fails, naming them, when a main package has no test file.
mains-pinned:
	@untested=$$(go list -f '{{if and (eq .Name "main") (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./...); \
	if [ -n "$$untested" ]; then echo "main packages with no test:"; echo "$$untested"; exit 1; fi

# Live-fuzz pass over every fuzz target (the committed seed corpus already
# replays in `make test`): 30 s each for `fuzz`, 5 s each for tier-1's
# `fuzz-smoke`, short enough to keep the merge gate fast.
fuzz: FUZZTIME = 30s
fuzz-smoke: FUZZTIME = 5s
fuzz fuzz-smoke:
	go test ./internal/scenario/ -fuzz FuzzLoad -fuzztime $(FUZZTIME)
	go test ./internal/scenario/ -fuzz FuzzBudgetSchedule -fuzztime $(FUZZTIME)
	go test ./internal/scenario/ -fuzz FuzzPolicySpec -fuzztime $(FUZZTIME)
	go test ./internal/tsdb/ -fuzz FuzzQueryAPI -fuzztime $(FUZZTIME)
	go test ./internal/whatif/ -run '^$$' -fuzz FuzzForkTick -fuzztime $(FUZZTIME)
	go test ./internal/sim/ -run '^$$' -fuzz FuzzEngineMatchesReference -fuzztime $(FUZZTIME)
	go test ./internal/core/ -run '^$$' -fuzz FuzzBoundaryMatchesSelect -fuzztime $(FUZZTIME)
	go test ./internal/stats/ -run '^$$' -fuzz FuzzLogIndexMatchesFormula -fuzztime $(FUZZTIME)

# The grid-event resilience experiment: the same 20% curtailment as a cliff
# and ramp-limited, quick scale (full 100k: `go run ./cmd/ampere-exp -exp
# gridstorm`).
gridstorm:
	go run ./cmd/ampere-exp -exp gridstorm -quick

# Tier-1's snapshot/replay smoke: snapshot a 400-server gridstorm run
# mid-storm, self-replay, and require an empty diff.
whatif-smoke:
	go test ./internal/whatif/ -run TestWhatifSelfDiff400 -count=1

# Policy tournament: fork one factual gridstorm cliff run at dip onset and
# replay the default policy grid (selection × Et estimator × unfreeze ×
# horizon × ramp) from the shared snapshot, ranked by trips / violation
# ticks / frozen capacity / completed jobs. Full 100k-server grid:
# `go run ./cmd/ampere-exp -exp tournament`.
tournament:
	go run ./cmd/ampere-exp -exp tournament -quick

# Tier-1's tournament smoke: a 400-server grid over five patches, ranked
# deterministically and byte-identical at replay worker counts 1 and 4.
tournament-smoke:
	go test ./internal/experiment/ -run TestTournamentSmoke400 -count=1

# Fig 11 at deployment scale: a 100k-server fleet whose hot rows host a
# 3-million-user service, row capping vs Ampere scored as per-op/per-class
# p999 and SLO-miss (full scale: `go run ./cmd/ampere-exp -exp fig11scale`).
fig11scale:
	go run ./cmd/ampere-exp -exp fig11scale -quick

# Tier-1's behaviour pin: stdout of `ampere-exp -quick -exp all`, every table
# of every experiment, diffed against results/exp_quick_output.txt at
# GOMAXPROCS 1 (every run inline, in order) and 4 (fanned out), and every
# quick claim of every experiment checked on those runs. An id that checks no
# claim at -quick fails it.
golden-quick:
	go test -cpu 1,4 ./cmd/ampere-exp -run TestQuickAllGolden -count=1

# The paper-scale pin of the seven controlled-day experiments (table2 fig11
# fig12 table3 outage chaos ablations) and of the ids with paper-scale-only
# claims (fig5 fig9 gridstorm; ≈ 1 min on 2 vCPUs, not in tier1): each one's
# stdout against its section of results/exp_full_output.txt, timing lines
# aside, and each one's claims. `sh scripts/golden_paper ID ...` checks a
# subset.
golden-paper:
	sh scripts/golden_paper

# The parallel-sweep and parallel-replay guards, and those of the Loop pool
# they share with the federation, count process-wide mallocs,
# goroutines and finalizer runs, which one pass on a quiet machine says
# little about: thirty in a row is what shows a guard that fails one run in
# ten. The pool is state shared across packages, whose faults show as rare
# hangs or pins. The frame's reader/writer test and the service's readers
# against a window in flight are races, so they run under -race.
flake:
	go test ./internal/runner -run TestLoop -count=30
	go test ./internal/federate -run PinsNothing -count=10
	go test ./internal/monitor -run TestParallelSweep -count=30
	go test -race ./internal/monitor -run TestFrameReadersSeeWholeSweeps -count=10
	go test -race ./internal/service -run TestReadersSeeEveryClosedWindow -count=10
	go test ./internal/service -run TestParallelReplay -count=30

# Fault-injection drill: naive vs resilient controller under the same storm.
chaos:
	go run ./cmd/ampere-exp -exp chaos -quick

# Tier-1's federation smoke: byte-identity of the federated tick across
# shard worker counts (4 small DCs with a mid-run headroom shift). The 4-DC ×
# 400-server quick federated scale run is -exp scale's, whose claims
# golden-quick checks.
fed-smoke:
	go test ./internal/federate/ -count=1

# Records GOMAXPROCS 1 vs CPU-count wall-clock for two fanned-out quick
# experiments (spread: 3 rigs, table3: 13); on a ≥4-core machine the wider
# run should be ≥2× faster with byte-identical results (parallel_test.go
# checks the identity half).
bench-runner:
	go test -run '^$$' -bench 'BenchmarkQuick/(spread|table3)$$' -benchtime 1x -cpu 1,$$(nproc) .

# The paired measurement a performance claim rests on: ./bench built from
# PARENT's committed files and from the working tree, WORKLOAD run on both
# PAIRS times with the first mover alternating, then per end-to-end metric
# each side's median and quartiles, the pairs won, and the verdict by the
# nine-in-ten and beyond-the-parent's-quartiles rule (scripts/bench_verdict;
# a loss reads WORSE only past the metric's bound in BENCHMARK.json).
#   make bench-pair PARENT=HEAD~1 WORKLOAD=rows4_week PAIRS=10
# A claim must also hold on a seed not used while the change was written:
# repeat with SEED=2.
PARENT ?= HEAD
WORKLOAD ?= rows4_week
PAIRS ?= 10
SEED ?= 1
bench-pair:
	sh scripts/bench_pair $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# bench-pair on every workload BENCHMARK.json names, one table each:
# acceptance is "no end-to-end metric worse on any workload".
#   make bench-pair-all PARENT=HEAD~1 PAIRS=10
bench-pair-all:
	@sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json | while read -r w; do \
		sh scripts/bench_pair $(PARENT) "$$w" $(PAIRS) $(SEED) || exit 1; echo; done

# Go lines added and removed since PARENT, split into non-test, test and
# bench/, per package — the figure a simplicity PR reports.
#   make lines PARENT=HEAD~1
lines:
	@sh scripts/diff_lines $(PARENT)
