package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// The resilience layer's fixed thresholds.
const (
	// staleAfter is the sample age at which a reading stops counting as
	// fresh (strictly: fresh means age < staleAfter): two control intervals,
	// so a single dropped monitor sweep is absorbed silently and two
	// consecutive drops trigger degraded mode.
	staleAfter = 2 * interval
	// maxPlausibleP is the largest credible normalized power reading, three
	// times the domain budget; anything above it (or negative, NaN, Inf) is
	// rejected as a corrupt sample.
	maxPlausibleP = 3
	// retryAttempts bounds how many times a failed Freeze/Unfreeze call is
	// retried beyond the initial attempt.
	retryAttempts = 3
	// retryBackoff is the delay before the first retry; it doubles on each
	// subsequent attempt.
	retryBackoff = 5 * sim.Second
)

// ResilienceConfig tunes how the controller behaves when its substrate
// fails: stale or missing monitor samples, implausible readings, and
// scheduler API errors. DefaultConfig holds the deployment values; set
// Disabled to recover the naive controller that trusts every reading and
// never retries, which exists for ablations and the chaos experiment's
// baseline.
type ResilienceConfig struct {
	// Disabled turns the whole layer off: every sample is trusted as fresh
	// and valid, failed freeze/unfreeze calls are not retried, and the
	// controller never enters degraded or fail-safe mode.
	Disabled bool
	// FailSafeAfter is the number of consecutive dark intervals (no fresh
	// valid sample) after which the controller enters fail-safe mode: hold
	// the current frozen set, freeze nothing new, unfreeze nothing.
	// DefaultConfig sets 5.
	FailSafeAfter int
	// EtInflation multiplies the Et estimate while the controller flies on
	// last-known-good data, so the degraded forecast stays conservative.
	// DefaultConfig sets 2.
	EtInflation float64
}

// validate reports resilience configuration errors.
func (r ResilienceConfig) validate() error {
	switch {
	case r.FailSafeAfter < 1:
		return fmt.Errorf("core: Resilience.FailSafeAfter %d must be at least 1", r.FailSafeAfter)
	case math.IsNaN(r.EtInflation) || math.IsInf(r.EtInflation, 0) || r.EtInflation <= 0:
		return fmt.Errorf("core: Resilience.EtInflation %v must be a finite positive number", r.EtInflation)
	}
	return nil
}

// pendingOp is a freeze or unfreeze call being retried after a transient
// API failure. It is cancelled when the controller decides the opposite
// action for the server before the retry fires.
type pendingOp struct {
	unfreeze  bool
	attempt   int
	cancelled bool
}

// scheduleRetry arms a retry of the failed operation with exponential
// backoff, bounded by retryAttempts.
func (c *Controller) scheduleRetry(ds *domainState, id cluster.ServerID, unfreeze bool, attempt int) {
	if c.cfg.Resilience.Disabled || attempt >= retryAttempts {
		return
	}
	op := &pendingOp{unfreeze: unfreeze, attempt: attempt}
	ds.pending[id] = op
	delay := retryBackoff << uint(attempt)
	c.eng.After(delay, "ampere-retry", func(now sim.Time) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if op.cancelled || ds.pending[id] != op {
			return
		}
		delete(ds.pending, id)
		if !unfreeze && ds.frozen.len() >= int(c.cfg.MaxFreezeRatio*float64(len(ds.d.Servers))) {
			// The tick path met the freeze target without this server; going
			// through now would breach the operational freeze cap.
			return
		}
		ds.stats.Retries++
		err := c.callFreezeAPI(ds, id, unfreeze)
		if err != nil {
			ds.stats.APIErrors++
			ds.consecAPIErr++
			c.scheduleRetry(ds, id, unfreeze, attempt+1)
			return
		}
		ds.stats.RetrySuccesses++
		ds.consecAPIErr = 0
		if unfreeze {
			ds.frozen.remove(id)
			ds.stats.UnfreezeOps++
		} else {
			ds.frozen.add(id)
			ds.stats.FreezeOps++
		}
	})
}

// cancelPending drops the domain's in-flight retries: all of them (the
// controller stopped, or resynced from ground truth), or only the unfreezes —
// fail-safe mode must never release capacity on the strength of stale data.
// Callers hold mu.
func (ds *domainState) cancelPending(unfreezesOnly bool) {
	for id, op := range ds.pending {
		if op.unfreeze || !unfreezesOnly {
			op.cancelled = true
			delete(ds.pending, id)
		}
	}
}

// readGroup returns the domain's latest group power together with the time
// the sample was taken; a reader that cannot date it counts as fresh.
// Contiguous domains (rows) read through RangePower, whose contract
// (controller.go) makes the value bit-identical to the GroupPower sum.
func (c *Controller) readGroup(ds *domainState, now sim.Time) (watts float64, at sim.Time, ok bool) {
	var w float64
	var wok bool
	if ds.contig {
		w, wok = c.reader.RangePower(ds.loID, ds.hiID)
	} else {
		w, wok = c.reader.GroupPower(ds.d.Servers)
	}
	if !wok {
		return 0, 0, false
	}
	if t, tok := c.reader.GroupSampleTime(ds.d.Servers); tok {
		return w, t, true
	}
	return w, now, true
}
