package main

import (
	"math"
	"testing"
)

func seq(lo, hi int) []float64 {
	var out []float64
	for v := lo; v <= hi; v++ {
		out = append(out, float64(v))
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		p      float64
		want   float64
		wantOK bool
	}{
		{seq(1, 100), 50, 50, true},   // rank 50, 50 beyond
		{seq(1, 100), 99, 99, false},  // rank 99, 1 beyond
		{seq(1, 100), 90, 90, true},   // rank 90, exactly 10 beyond
		{seq(1, 100), 91, 91, false},  // rank 91, 9 beyond
		{seq(1, 1000), 99, 990, true}, // the smallest sample a p99 is reported from
		{seq(1, 999), 99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{seq(1, 10), 50, 5, false},    // 5 beyond
		{[]float64{7}, 50, 7, false},  // one sample: reported, never supported
		{seq(1, 20), 1, 1, true},      // rank rounds up to 1
		{nil, 50, 0, false},
	} {
		got, ok := percentile(tc.vals, tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, p%g) = %g, %v; want %g, %v", len(tc.vals), tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
}

// TestQuartilesMatchPython pins the across-round median and IQR to the
// values Python's statistics.quantiles(vals, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{seq(1, 10), 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7, 1, 4, 10, 2, 9}, 1.75, 5.5, 9.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.vals); m != tc.q2 {
			t.Errorf("median(%v) = %g, want %g", tc.vals, m, tc.q2)
		}
	}
	m := newMetric("x", "us", []float64{10, 30, 20, 50, 40}, 5)
	if m.value != 30 || m.iqr != 45-15 {
		t.Errorf("newMetric: value %g iqr %g, want 30 and 30", m.value, m.iqr)
	}
	// Times take the best round, with the same spread printed beside it.
	if m := timeMetric("x", "us", []float64{30, 10, 50}, 3, false); m.value != 10 || m.iqr != 40 {
		t.Errorf("timeMetric lower-is-better: value %g iqr %g, want 10 and 40", m.value, m.iqr)
	}
	if m := timeMetric("x", "1/s", []float64{30, 10, 50}, 3, true); m.value != 50 {
		t.Errorf("timeMetric higher-is-better: value %g, want 50", m.value)
	}
	// Latency: the median round's p50 and the best round's p99.
	rounds := [][]float64{seq(101, 1100), seq(1, 1000), seq(201, 1200)}
	if m := roundPercentile("p50", rounds, 50); m.value != 600 || m.unsupported {
		t.Errorf("roundPercentile p50: value %g unsupported %v, want 600 and false", m.value, m.unsupported)
	}
	if m := roundPercentile("p99", rounds, 99); m.value != 990 || m.unsupported {
		t.Errorf("roundPercentile p99: value %g unsupported %v, want 990 and false", m.value, m.unsupported)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"siblings", []interval{{110, 120}, {150, 170}}, 70},
		{"nested children count once", []interval{{110, 190}, {120, 130}, {150, 160}}, 20},
		{"overlapping siblings", []interval{{110, 140}, {130, 160}}, 50},
		{"touching siblings", []interval{{110, 130}, {130, 150}}, 60},
		{"child starts before parent", []interval{{50, 130}}, 70},
		{"child ends after parent", []interval{{180, 260}}, 80},
		{"child covers parent", []interval{{0, 300}}, 0},
		{"child outside parent", []interval{{0, 100}, {200, 300}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
		{"empty child", []interval{{150, 150}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
