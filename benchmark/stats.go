package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: a p99 needs at least 1,000 samples.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. ok is false when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minTail
}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of vals
// by the same rule as Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), so the IQR the benchmark prints is the spread a
// reader recomputing it from the per-round values gets.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := sortedCopy(vals)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), median(d), at(3)
}

// median returns the middle of vals (the mean of the two middle values for
// an even count).
func median(vals []float64) float64 {
	d := sortedCopy(vals)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// interval is a span's [start, end) in nanoseconds since the trace epoch.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it the union of children
// covers: children are clipped to parent, and overlapping or nested
// children count once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
