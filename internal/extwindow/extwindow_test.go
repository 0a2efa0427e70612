package extwindow

import (
	"testing"
	"testing/quick"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func bruteWindow(pts []record.Point, x1, x2, y1, y2 int64) []record.Point {
	var out []record.Point
	for _, p := range pts {
		if p.X >= x1 && p.X <= x2 && p.Y >= y1 && p.Y <= y2 {
			out = append(out, p)
		}
	}
	return out
}

func TestEmpty(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := tr.Query(0, 10, 0, 10)
	if err != nil || out != nil || st.Results != 0 {
		t.Fatalf("empty query: %v %v %v", out, st, err)
	}
}

func TestInvertedWindows(t *testing.T) {
	pts := workload.UniformPoints(100, 1000, 1101)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, _ := tr.Query(500, 100, 0, 1000); out != nil {
		t.Fatal("inverted x window returned points")
	}
	if out, _, _ := tr.Query(0, 1000, 500, 100); out != nil {
		t.Fatal("inverted y window returned points")
	}
}

func TestQueryMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 10, 300, 5000, 20_000} {
		pts := workload.UniformPoints(n, 100_000, int64(n)+11)
		s := disk.MustStore(512)
		tr, err := Build(s, pts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d", tr.Len())
		}
		for _, q := range workload.ThreeSidedQueries(20, 100_000, 0.3, 0.05, 1103) {
			// Reuse 3-sided windows with a bounded top.
			y2 := q.B + 20_000
			got, st, err := tr.Query(q.A1, q.A2, q.B, y2)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteWindow(pts, q.A1, q.A2, q.B, y2)
			if !inmem.SamePoints(got, want) {
				t.Fatalf("n=%d window (%d,%d,%d,%d): got %d want %d",
					n, q.A1, q.A2, q.B, y2, len(got), len(want))
			}
			if st.Results != len(got) {
				t.Fatal("stats mismatch")
			}
		}
	}
}

func TestDegenerateWindows(t *testing.T) {
	pts := workload.UniformPoints(5000, 10_000, 1105)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][4]int64{
		{-1 << 40, 1 << 40, -1 << 40, 1 << 40}, // everything
		{5000, 5000, 0, 10_000},                // zero-width x
		{0, 10_000, 5000, 5000},                // zero-height y
		{10_001, 10_002, 0, 10_000},            // right of data
		{0, 10_000, 10_001, 10_002},            // above data
	}
	for _, c := range cases {
		got, _, err := tr.Query(c[0], c[1], c[2], c[3])
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteWindow(pts, c[0], c[1], c[2], c[3]); !inmem.SamePoints(got, want) {
			t.Fatalf("window %v: got %d want %d", c, len(got), len(want))
		}
	}
}

func TestQueryProperty(t *testing.T) {
	f := func(raw []struct{ X, Y int16 }, x1, x2, y1, y2 int16) bool {
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		pts := make([]record.Point, len(raw))
		for i, r := range raw {
			pts[i] = record.Point{X: int64(r.X), Y: int64(r.Y), ID: uint64(i + 1)}
		}
		s := disk.MustStore(512)
		tr, err := Build(s, pts)
		if err != nil {
			return false
		}
		got, _, err := tr.Query(int64(x1), int64(x2), int64(y1), int64(y2))
		if err != nil {
			return false
		}
		return inmem.SamePoints(got, bruteWindow(pts, int64(x1), int64(x2), int64(y1), int64(y2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func log2(n int) int {
	r := 0
	for v := 1; v < n; v *= 2 {
		r++
	}
	return r
}

// Query cost: O(log(n/B) + t/B) — one directory + one partial page per
// canonical node, plus the output.
func TestQueryIOBound(t *testing.T) {
	const n = 50_000
	pts := workload.UniformPoints(n, 1_000_000, 1107)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	canon := 2 * log2(n/b+2)
	for _, q := range workload.ThreeSidedQueries(30, 1_000_000, 0.2, 0.01, 1109) {
		y2 := q.B + 100_000
		s.ResetStats()
		got, _, err := tr.Query(q.A1, q.A2, q.B, y2)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(s.Stats().Reads)
		bound := 3*canon + 2*len(got)/b + 10
		if reads > bound {
			t.Fatalf("window (%d,%d,%d,%d): %d reads for t=%d (bound %d)",
				q.A1, q.A2, q.B, y2, reads, len(got), bound)
		}
	}
}

// Space: O((n/B)·log(n/B)) pages.
func TestSpaceBound(t *testing.T) {
	const n = 30_000
	pts := workload.UniformPoints(n, 1_000_000, 1111)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	bound := 6 * (n/b + 1) * (log2(n/b+2) + 1)
	if got := tr.TotalPages(); got > bound {
		sk, lists, dirs := tr.SpacePages()
		t.Fatalf("pages=%d bound=%d (skel=%d lists=%d dirs=%d)", got, bound, sk, lists, dirs)
	}
	if s.NumPages() != tr.TotalPages() {
		t.Fatalf("store %d pages, structure claims %d", s.NumPages(), tr.TotalPages())
	}
}
