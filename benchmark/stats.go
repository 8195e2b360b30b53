package main

import (
	"math"
	"sort"
)

// Estimators. On a small shared VM interference is one-sided: a neighbour, a
// move between vCPUs or a collection makes a segment slower, never faster,
// and it comes in bursts that can cover most of a run. So every end-to-end
// time is the fast decile of its sample — the 10th percentile of time, the
// 90th of a rate — over the S per-segment values for throughput, the S
// per-segment percentiles for latency, and the K repetitions for set-up. It
// reports the undisturbed machine as long as a tenth of the run was
// undisturbed (a median gives up at half), and unlike a minimum it is not one
// single reading. The traced run's per-layer times, which nothing gates, stay
// plain medians.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count). It panics on an empty sample: every caller sizes its sample from
// the scale table, so an empty one is a bug.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample value with
// at least p percent of the sample at or below it. A failed op is recorded
// as +Inf, so it counts as missing every latency limit instead of vanishing
// from the sample.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quantile is the p-quantile (0..1) with linear interpolation between order
// statistics. An infinite neighbour (a failed op) is never interpolated
// towards: the result is either a sample value or between two finite ones.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	j := int(pos)
	if frac := pos - float64(j); frac > 0 && !math.IsInf(s[j+1], 0) {
		return s[j] + frac*(s[j+1]-s[j])
	}
	return s[j]
}

// fastTime is the fast decile of a sample of durations, fastRate of a sample
// of rates.
func fastTime(xs []float64) float64 { return quantile(xs, 0.10) }
func fastRate(xs []float64) float64 { return quantile(xs, 0.90) }

// segmentPercentile is the fast decile over segments of each segment's own
// percentile.
func segmentPercentile(segs [][]float64, p float64) float64 {
	per := make([]float64, len(segs))
	for i, s := range segs {
		per[i] = percentile(s, p)
	}
	return fastTime(per)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the -aa table
// shows the same spread the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relGap is |a-b| as a share of b.
func relGap(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(b)
}
