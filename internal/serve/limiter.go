package serve

import (
	"sync/atomic"
	"time"
)

// Limiter is the connection-level backpressure gate: admission is tied
// to live queue depth instead of letting overload stack goroutines.
// Each admitted request holds one in-flight slot until it finishes; a
// request arriving while the combined depth — admitted requests plus
// the engine's own queue (backend I/O window occupancy) — is at the
// bound is REJECTED up front, so the server's answer to overload is a
// fast 503 + Retry-After, not an ever-growing pile of blocked handlers
// whose latency grows without bound.
type Limiter struct {
	max   int64
	depth func() int64

	inflight atomic.Int64
	peak     atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
}

// NewLimiter returns a limiter admitting requests while
// inflight + depth() < max. depth reports the engine's live queue
// depth and may be nil (admission then depends on in-flight requests
// alone). max <= 0 selects DefaultMaxInFlight.
func NewLimiter(max int, depth func() int64) *Limiter {
	if max <= 0 {
		max = DefaultMaxInFlight
	}
	if depth == nil {
		depth = func() int64 { return 0 }
	}
	return &Limiter{max: int64(max), depth: depth}
}

// DefaultMaxInFlight is the admission bound used when none is
// configured.
const DefaultMaxInFlight = 64

// Acquire tries to admit one request. On admission it returns a
// release function (call exactly once, when the request finishes) and
// true; on overload it returns nil and false.
func (l *Limiter) Acquire() (release func(), ok bool) {
	in := l.inflight.Add(1)
	if in > l.max || in+l.depth() > l.max {
		l.inflight.Add(-1)
		l.rejected.Add(1)
		return nil, false
	}
	for {
		p := l.peak.Load()
		if in <= p || l.peak.CompareAndSwap(p, in) {
			break
		}
	}
	l.admitted.Add(1)
	return func() { l.inflight.Add(-1) }, true
}

// RetryAfter suggests a client backoff for a rejected request. The
// hint is deliberately coarse — overload is measured in queue depth,
// not time — and is floored at one second, the Retry-After
// granularity.
func (l *Limiter) RetryAfter() time.Duration { return time.Second }

// LimiterStats is a snapshot of the limiter's counters.
type LimiterStats struct {
	// Max is the admission bound; InFlight the requests currently
	// holding a slot; PeakInFlight the deepest the gate has been —
	// bounded by Max at every instant, the invariant the overload
	// benchmark pins.
	Max, InFlight, PeakInFlight int64
	// Admitted and Rejected count admission decisions; Rejected
	// requests were answered 503 + Retry-After without touching the
	// mount.
	Admitted, Rejected int64
}

// Stats returns the current counters.
func (l *Limiter) Stats() LimiterStats {
	return LimiterStats{
		Max:          l.max,
		InFlight:     l.inflight.Load(),
		PeakInFlight: l.peak.Load(),
		Admitted:     l.admitted.Load(),
		Rejected:     l.rejected.Load(),
	}
}
