package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/whatif"
)

// why implements `ampere-trace why`: fork the gridstorm run at a journal
// event and score a counterfactual policy against the factual outcome.
func why(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("why", flag.ContinueOnError)
	event := fs.Int64("event", -1,
		"journal event seq to fork at (-1: the first budget-change, i.e. the dip onset)")
	var keys []string
	for _, a := range core.PolicyAxes() {
		if a.Patch {
			keys = append(keys, a.PatchKey())
		}
	}
	alt := fs.String("alt", "",
		"counterfactual patch, e.g. 'policy=coldest,et=ewma,unfreeze=headroom,ramp=0.02' "+
			"(keys: "+strings.Join(keys, ", ")+"); 'self' replays the factual policy; default: ramped budget")
	regime := fs.String("regime", "cliff", "factual gridstorm regime: cliff|ramp")
	full := fs.Bool("full", false, "paper-scale gridstorm (100k servers); default is the quick 320-server configuration")
	seed := fs.Uint64("seed", 0, "override the scenario seed (0 = scenario default)")
	jsonOut := fs.Bool("json", false, "emit the diff report as JSON instead of text")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	cfg := experiment.QuickGridstorm()
	if *full {
		cfg = experiment.DefaultGridstorm()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	var ramped bool
	switch *regime {
	case "cliff":
	case "ramp":
		ramped = true
	default:
		return fmt.Errorf("unknown regime %q (cliff|ramp)", *regime)
	}

	eng := &whatif.Engine{Build: experiment.GridstormBuilder(cfg, ramped)}

	// Locate the fork event in a full factual run; determinism makes this an
	// exact index of the journal.
	scout, err := eng.Baseline(0)
	if err != nil {
		return err
	}
	var fork obs.Event
	found := false
	if *event >= 0 {
		for i := range scout.Events {
			if scout.Events[i].Seq == uint64(*event) {
				fork, found = scout.Events[i], true
				break
			}
		}
		if !found {
			return fmt.Errorf("event %d not in the journal (run has %d events, seq 0..%d)",
				*event, len(scout.Events), len(scout.Events)-1)
		}
	} else if fork, found = whatif.FirstBudgetChange(scout.Events); !found {
		return fmt.Errorf("no budget-change event to fork at; pass -event N")
	}

	patchStr := *alt
	switch patchStr {
	case "":
		patchStr = experiment.RampPatch(cfg)
	case "self":
		patchStr = ""
	}
	patch, err := core.ParsePatch(patchStr)
	if err != nil {
		return err
	}

	fact, err := eng.Baseline(sim.Time(fork.SimMS))
	if err != nil {
		return err
	}
	altRes, err := eng.Replay(fact.Snap, patch)
	if err != nil {
		return err
	}
	rep := whatif.Diff(fact.View(sim.Minute), altRes.View(sim.Minute), fork.SimMS, patch.String())

	fmt.Fprintf(stderr, "why: factual replay %.2fs, counterfactual replay %.2fs, snapshot %d bytes\n",
		fact.Elapsed.Seconds(), altRes.Elapsed.Seconds(), fact.SnapshotBytes)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "gridstorm/%s, fork at event seq=%d (%s, domain %s)\n",
		*regime, fork.Seq, fork.SimTime, fork.Domain)
	fmt.Fprint(stdout, rep.Format())
	return nil
}
