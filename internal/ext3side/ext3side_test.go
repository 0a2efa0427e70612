package ext3side

import (
	"testing"
	"testing/quick"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func TestEmptyTree(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := tr.Query(0, 10, 0)
	if err != nil || out != nil || st.Results != 0 {
		t.Fatalf("query on empty: %v %v %v", out, st, err)
	}
}

func TestInvertedWindow(t *testing.T) {
	pts := workload.UniformPoints(100, 1000, 1)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := tr.Query(500, 100, 0)
	if err != nil || out != nil {
		t.Fatalf("inverted window: %v %v", out, err)
	}
}

func TestQueryMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 10, 200, 3000, 20_000} {
		pts := workload.UniformPoints(n, 100_000, int64(n)+5)
		s := disk.MustStore(512)
		tr, err := Build(s, pts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d", tr.Len())
		}
		for _, wf := range []float64{0.01, 0.2, 0.9} {
			for _, sel := range []float64{0.001, 0.05} {
				for _, q := range workload.ThreeSidedQueries(10, 100_000, wf, sel, 111) {
					got, st, err := tr.Query(q.A1, q.A2, q.B)
					if err != nil {
						t.Fatal(err)
					}
					want := inmem.ThreeSided(pts, q.A1, q.A2, q.B)
					if !inmem.SamePoints(got, want) {
						t.Fatalf("n=%d window (%d,%d,%d): got %d want %d",
							n, q.A1, q.A2, q.B, len(got), len(want))
					}
					if st.Results != len(got) {
						t.Fatalf("stats results %d != %d", st.Results, len(got))
					}
				}
			}
		}
	}
}

func TestQueryEdgeWindows(t *testing.T) {
	pts := workload.UniformPoints(5000, 10_000, 113)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a1, a2, b int64 }{
		{-1 << 40, 1 << 40, -1 << 40}, // everything
		{0, 9_999, 0},                 // full domain
		{5_000, 5_000, 0},             // zero-width window
		{0, 9_999, 9_999},             // top stripe
		{0, 0, 0},                     // left edge
		{9_999, 9_999, 0},             // right edge
		{3_000, 7_000, 10_001},        // empty (b too high)
		{10_001, 10_002, 0},           // empty (window right of data)
	}
	for _, c := range cases {
		got, _, err := tr.Query(c.a1, c.a2, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if want := inmem.ThreeSided(pts, c.a1, c.a2, c.b); !inmem.SamePoints(got, want) {
			t.Fatalf("window (%d,%d,%d): got %d want %d", c.a1, c.a2, c.b, len(got), len(want))
		}
	}
}

func TestQueryDuplicateCoordinates(t *testing.T) {
	var pts []record.Point
	for i := 0; i < 700; i++ {
		pts = append(pts, record.Point{X: int64(i % 7), Y: int64(i % 5), ID: uint64(i + 1)})
	}
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	for a1 := int64(-1); a1 <= 7; a1++ {
		for a2 := a1; a2 <= 7; a2++ {
			for b := int64(-1); b <= 6; b++ {
				got, _, err := tr.Query(a1, a2, b)
				if err != nil {
					t.Fatal(err)
				}
				if want := inmem.ThreeSided(pts, a1, a2, b); !inmem.SamePoints(got, want) {
					t.Fatalf("window (%d,%d,%d): got %d want %d", a1, a2, b, len(got), len(want))
				}
			}
		}
	}
}

func TestQueryProperty(t *testing.T) {
	f := func(raw []struct{ X, Y int16 }, a1, a2, b int16) bool {
		if a1 > a2 {
			a1, a2 = a2, a1
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
		got, _, err := tr.Query(int64(a1), int64(a2), int64(b))
		if err != nil {
			return false
		}
		return inmem.SamePoints(got, inmem.ThreeSided(pts, int64(a1), int64(a2), int64(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func logB(n, b int) int {
	if b < 2 {
		b = 2
	}
	r := 1
	for v := 1; v < n; v *= b {
		r++
	}
	return r
}

func log2(n int) int {
	r := 0
	for v := 1; v < n; v *= 2 {
		r++
	}
	return r
}

// Theorems 3.3/4.5 (engineering rendition): queries cost
// O(log_B n + log B + t/B) worst case, near-optimal on benchmarks.
func TestQueryIOBound(t *testing.T) {
	const n = 50_000
	pts := workload.UniformPoints(n, 1_000_000, 127)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	lb := logB(n, b)
	for _, wf := range []float64{0.05, 0.3} {
		for _, sel := range []float64{0.001, 0.02} {
			for _, qy := range workload.ThreeSidedQueries(20, 1_000_000, wf, sel, 131) {
				s.ResetStats()
				got, st, err := tr.Query(qy.A1, qy.A2, qy.B)
				if err != nil {
					t.Fatal(err)
				}
				reads := int(s.Stats().Reads)
				// Two side walks + fork walk, each with per-chunk constants,
				// plus up to 2 log B direct blocks at fork-crossing chunks.
				bound := 12*lb + 4*log2(b) + 4*len(got)/b + 12
				if reads > bound {
					t.Fatalf("window (%d,%d,%d): %d reads for t=%d (bound %d) stats=%+v",
						qy.A1, qy.A2, qy.B, reads, len(got), bound, st)
				}
			}
		}
	}
}

// Space: O((n/B)·log B) pages, under the paper's O((n/B)·log^2 B) budget.
func TestSpaceBound(t *testing.T) {
	const n = 40_000
	pts := workload.UniformPoints(n, 1_000_000, 137)
	s := disk.MustStore(512)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	bound := 12 * (n/b + 1) * (log2(b) + 1)
	if got := tr.TotalPages(); got > bound {
		sk, blocks, caches := tr.SpacePages()
		t.Fatalf("pages=%d bound=%d (skel=%d blocks=%d caches=%d)", got, bound, sk, blocks, caches)
	}
	if s.NumPages() != tr.TotalPages() {
		t.Fatalf("store has %d pages, structure claims %d", s.NumPages(), tr.TotalPages())
	}
}
