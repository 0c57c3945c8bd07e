package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method — the rule Python's statistics.quantiles(xs, n=4)
// applies, which is the one the acceptance check of this benchmark is
// stated in. Fewer than two values have no spread: both quartiles are
// the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis; the index is clamped to
		// the data and the weight is not, so tiny samples extrapolate
		// exactly as the Python routine does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance of xs as a share of its
// median — the steadiness figure every bound is judged against.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	d := (q3 - q1) / m
	if d < 0 {
		d = -d
	}
	return d
}

// percentileMs returns the p-th percentile (0 < p < 1) of sorted
// durations in milliseconds, nearest-rank; 0 for no samples.
func percentileMs(sorted []time.Duration, p float64) float64 {
	return percentile(sorted, p).Seconds() * 1e3
}

// percentile is the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
