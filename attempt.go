package lamassu

// The attempt layer — the public face of WithRetry and
// WithHedgedReads. Either option wraps every physical backing store
// (each shard of a sharded deployment, and stores joining it later)
// in one backend.AttemptStore, beneath name encryption. A backend
// operation failing with a RETRYABLE error (see IsRetryable) gets
// another attempt after a capped, deterministically jittered backoff;
// with hedging on, each attempt of a read is a race between the
// primary and a duplicate issued once the primary has been outstanding
// past an adaptive latency quantile — the first usable response wins,
// the loser is canceled, and a race whose reads both fail hands the
// primary's error to the retry loop. Writes never race. Every backend
// operation Lamassu issues is idempotent, so a re-issue is the §2.4
// crash-cut-then-resume path run early and a duplicated read changes
// no state: neither option weakens the crash-consistency model. Fatal
// errors (missing files, integrity failures, cancellation) surface at
// once; a cancellation cuts the loop, the operation reports
// IsCanceled, and the standard crash-cut recovery applies.

import (
	"sync"
	"time"

	"lamassu/internal/backend"
)

// RetryPolicy tunes the retrying store wrapper enabled by WithRetry.
// The zero value selects the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of times a backend operation is
	// issued (first try included) before its last retryable error
	// surfaces to the caller. 0 selects 4; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-issue (0 selects
	// 1ms). Successive re-issues double it.
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt backoff (0 selects 64× BaseDelay).
	MaxDelay time.Duration
	// Seed perturbs the deterministic backoff jitter; runs with the
	// same seed observe identical schedules.
	Seed uint64
}

// HedgePolicy tunes the hedged-read wrapper enabled by WithHedgedReads.
// The zero value selects the adaptive defaults noted on each field.
type HedgePolicy struct {
	// Delay, when nonzero, fixes the hedge delay: a second read is
	// issued whenever the first has been outstanding this long. Zero
	// (the default) selects the adaptive delay — a high quantile of the
	// store's observed read latency, recomputed continuously — which
	// tracks the store instead of needing manual tuning.
	Delay time.Duration
	// Quantile is the observed-latency quantile the adaptive delay is
	// derived from (the delay is the quantile scaled by a safety
	// factor). 0 selects 0.95; values outside (0,1) select the default.
	Quantile float64
	// MinDelay floors the adaptive delay: when the computed delay falls
	// below it the store is fast enough that hedging would only add
	// load, and hedging disarms entirely (reads stay on the zero-
	// allocation fast path). 0 selects 200µs.
	MinDelay time.Duration
}

// attemptPolicy lowers Options.Retry and Options.Hedge onto the
// backend attempt layer.
func (o *Options) attemptPolicy() backend.AttemptPolicy {
	var p backend.AttemptPolicy
	if o.Retry != nil {
		r := backend.RetryPolicy(*o.Retry)
		p.Retry = &r
	}
	if o.Hedge != nil {
		h := backend.HedgePolicy(*o.Hedge)
		p.Hedge = &h
	}
	return p
}

// attemptRegistry collects the attempt wrappers a mount created — one
// per physical store — so EngineStats and HedgedReadStats can
// aggregate their counters. Stores join at mount time and when an
// online rebalance wraps a store new to the deployment. Mounts without
// retry or hedging carry a nil registry, which snapshot reads as empty.
type attemptRegistry struct {
	hedged bool // the wrappers hedge reads

	mu     sync.Mutex
	stores []*backend.AttemptStore
}

func (r *attemptRegistry) add(s *backend.AttemptStore) {
	r.mu.Lock()
	r.stores = append(r.stores, s)
	r.mu.Unlock()
}

func (r *attemptRegistry) snapshot() []*backend.AttemptStore {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*backend.AttemptStore(nil), r.stores...)
}

// HedgedReadStats is one hedged store's counters: how many reads it
// served, how many grew a hedge, how often the hedge won, and the
// observed backend read-latency quantiles its adaptive delay is
// derived from.
type HedgedReadStats struct {
	// Reads counts backend reads issued through the wrapper; Hedges
	// counts the duplicate reads its delay triggered; HedgeWins counts
	// hedges whose response beat the primary's.
	Reads, Hedges, HedgeWins int64
	// P50 and P99 are the store's observed read-latency quantiles over
	// a sliding window of recent reads (zero until enough samples).
	P50, P99 time.Duration
}

// HedgedReadStats reports per-store hedged-read counters, one entry
// per physical store the mount hedges over (a sharded deployment has
// one per shard); nil unless the mount was created with
// WithHedgedReads.
func (m *Mount) HedgedReadStats() []HedgedReadStats {
	if m.attempts == nil || !m.attempts.hedged {
		return nil
	}
	stores := m.attempts.snapshot()
	out := make([]HedgedReadStats, len(stores))
	for i, s := range stores {
		st := s.Stats()
		out[i] = HedgedReadStats{
			Reads:     st.Reads,
			Hedges:    st.Hedges,
			HedgeWins: st.HedgeWins,
			P50:       st.P50,
			P99:       st.P99,
		}
	}
	return out
}
