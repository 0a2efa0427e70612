package extpst

import (
	"math"
	"testing"
	"testing/quick"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

var allSchemes = []Scheme{IKO, Basic, Segmented}

func TestEmptyTree(t *testing.T) {
	for _, sc := range allSchemes {
		s := disk.MustStore(512)
		tr, err := Build(s, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := tr.Query(0, 0)
		if err != nil || out != nil || st.Results != 0 {
			t.Fatalf("%v: query on empty: %v %v %v", sc, out, st, err)
		}
	}
}

func TestQueryMatchesOracle(t *testing.T) {
	for _, sc := range allSchemes {
		for _, n := range []int{1, 2, 5, 50, 1000, 5000} {
			pts := workload.UniformPoints(n, 100_000, int64(n)+13)
			s := disk.MustStore(512)
			tr, err := Build(s, pts, sc)
			if err != nil {
				t.Fatalf("%v n=%d: %v", sc, n, err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			for _, sel := range []float64{0.001, 0.05, 0.5} {
				for _, q := range workload.TwoSidedQueries(15, 100_000, sel, 99) {
					got, st, err := tr.Query(q.A, q.B)
					if err != nil {
						t.Fatal(err)
					}
					want := inmem.TwoSided(pts, q.A, q.B)
					if !inmem.SamePoints(got, want) {
						t.Fatalf("%v n=%d query (%d,%d): got %d want %d",
							sc, n, q.A, q.B, len(got), len(want))
					}
					if st.Results != len(got) {
						t.Fatalf("stats results %d != %d", st.Results, len(got))
					}
				}
			}
		}
	}
}

func TestQueryExtremeCorners(t *testing.T) {
	pts := workload.UniformPoints(2000, 10_000, 17)
	for _, sc := range allSchemes {
		s := disk.MustStore(512)
		tr, err := Build(s, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct{ a, b int64 }{
			{math.MinInt64, math.MinInt64}, // everything
			{0, 0},                         // everything (domain corner)
			{10_000, 10_000},               // nothing
			{math.MaxInt64, math.MaxInt64}, // nothing
			{-5, 9_999},                    // top stripe
			{9_999, -5},                    // right stripe
		}
		for _, c := range cases {
			got, _, err := tr.Query(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(pts, c.a, c.b); !inmem.SamePoints(got, want) {
				t.Fatalf("%v corner (%d,%d): got %d want %d", sc, c.a, c.b, len(got), len(want))
			}
		}
	}
}

func TestQueryDuplicateCoordinates(t *testing.T) {
	var pts []record.Point
	for i := 0; i < 800; i++ {
		pts = append(pts, record.Point{X: int64(i % 9), Y: int64(i % 11), ID: uint64(i + 1)})
	}
	for _, sc := range allSchemes {
		s := disk.MustStore(512)
		tr, err := Build(s, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		for a := int64(-1); a <= 10; a++ {
			for b := int64(-1); b <= 12; b++ {
				got, _, err := tr.Query(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if want := inmem.TwoSided(pts, a, b); !inmem.SamePoints(got, want) {
					t.Fatalf("%v corner (%d,%d): got %d want %d", sc, a, b, len(got), len(want))
				}
			}
		}
	}
}

func TestQueryClusteredAndSkewed(t *testing.T) {
	workloads := map[string][]record.Point{
		"clustered": workload.ClusteredPoints(3000, 6, 100_000, 2000, 23),
		"diagonal":  workload.DiagonalPoints(3000, 100_000, 5000, 29),
		"zipf":      workload.ZipfPoints(3000, 100_000, 1.3, 31),
	}
	for name, pts := range workloads {
		for _, sc := range allSchemes {
			s := disk.MustStore(512)
			tr, err := Build(s, pts, sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range workload.TwoSidedQueries(25, 100_000, 0.02, 37) {
				got, _, err := tr.Query(q.A, q.B)
				if err != nil {
					t.Fatal(err)
				}
				if want := inmem.TwoSided(pts, q.A, q.B); !inmem.SamePoints(got, want) {
					t.Fatalf("%s/%v query (%d,%d): got %d want %d",
						name, sc, q.A, q.B, len(got), len(want))
				}
			}
		}
	}
}

// Property test: random small point sets, random corners, all schemes agree
// with brute force.
func TestQueryProperty(t *testing.T) {
	f := func(raw []struct{ X, Y int16 }, a, b int16) bool {
		pts := make([]record.Point, len(raw))
		for i, r := range raw {
			pts[i] = record.Point{X: int64(r.X), Y: int64(r.Y), ID: uint64(i + 1)}
		}
		want := inmem.TwoSided(pts, int64(a), int64(b))
		for _, sc := range allSchemes {
			s := disk.MustStore(512)
			tr, err := Build(s, pts, sc)
			if err != nil {
				return false
			}
			got, _, err := tr.Query(int64(a), int64(b))
			if err != nil || !inmem.SamePoints(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
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

// Theorem 3.2: Segmented (and Basic) queries cost O(log_B n + t/B) I/Os.
func TestCachedQueryIOBound(t *testing.T) {
	const n = 50_000
	pts := workload.UniformPoints(n, 1_000_000, 41)
	for _, sc := range []Scheme{Basic, Segmented} {
		s := disk.MustStore(512)
		tr, err := Build(s, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		b := tr.B()
		for _, sel := range []float64{0.0005, 0.01, 0.2} {
			for _, qy := range workload.TwoSidedQueries(25, 1_000_000, sel, 43) {
				s.ResetStats()
				got, st, err := tr.Query(qy.A, qy.B)
				if err != nil {
					t.Fatal(err)
				}
				reads := int(s.Stats().Reads)
				// Constants: skeletal path, boundary blocks and sibling
				// blocks per chunk (Segmented), cache tails.
				lb := logB(n, b)
				bound := 8*lb + 4*len(got)/b + 10
				if reads > bound {
					t.Fatalf("%v sel=%g corner (%d,%d): %d reads for t=%d (bound %d, logB=%d) stats=%+v",
						sc, sel, qy.A, qy.B, reads, len(got), bound, lb, st)
				}
			}
		}
	}
}

// The IKO baseline must pay ~log2(n/B) I/Os on low-selectivity queries where
// the cached schemes pay ~log_B n.
func TestIKOPaysBinaryLog(t *testing.T) {
	const n = 100_000
	pts := workload.UniformPoints(n, 1_000_000, 47)
	readsFor := func(sc Scheme) float64 {
		s := disk.MustStore(512)
		tr, err := Build(s, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		queries := workload.TwoSidedQueries(40, 1_000_000, 0.0002, 53)
		for _, q := range queries {
			s.ResetStats()
			if _, _, err := tr.Query(q.A, q.B); err != nil {
				t.Fatal(err)
			}
			total += s.Stats().Reads
		}
		return float64(total) / float64(len(queries))
	}
	iko := readsFor(IKO)
	seg := readsFor(Segmented)
	if iko <= seg {
		t.Fatalf("IKO averaged %.1f reads <= segmented %.1f: caching shows no benefit", iko, seg)
	}
}

// The space ladder: IKO is O(n/B); Segmented is O((n/B)·log B), far below
// Basic's O((n/B)·log(n/B)).
func TestSpaceLadder(t *testing.T) {
	const n = 30_000
	pts := workload.UniformPoints(n, 1_000_000, 59)
	pages := map[Scheme]int{}
	var b int
	for _, sc := range allSchemes {
		s := disk.MustStore(512)
		tr, err := Build(s, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		b = tr.B()
		pages[sc] = tr.TotalPages()
		if s.NumPages() != tr.TotalPages() {
			t.Fatalf("%v: store %d pages, structure claims %d", sc, s.NumPages(), tr.TotalPages())
		}
	}
	base := n/b + 1
	if pages[IKO] > 4*base {
		t.Fatalf("IKO uses %d pages, want O(n/B)=~%d", pages[IKO], base)
	}
	if pages[Segmented] > 6*base*log2(b) {
		t.Fatalf("Segmented uses %d pages, want O((n/B)logB)=~%d", pages[Segmented], base*log2(b))
	}
	if pages[Basic] > 6*base*log2(n/b+2) {
		t.Fatalf("Basic uses %d pages, want O((n/B)log(n/B))=~%d", pages[Basic], base*log2(n/b+2))
	}
	if !(pages[IKO] < pages[Segmented] && pages[Segmented] < pages[Basic]) {
		t.Fatalf("space ladder violated: iko=%d segmented=%d basic=%d",
			pages[IKO], pages[Segmented], pages[Basic])
	}
}

// Wasteful I/Os per query must stay bounded for cached schemes (the whole
// point of path caching).
func TestWastefulBounded(t *testing.T) {
	pts := workload.UniformPoints(40_000, 1_000_000, 61)
	s := disk.MustStore(512)
	tr, err := Build(s, pts, Segmented)
	if err != nil {
		t.Fatal(err)
	}
	lb := logB(40_000, tr.B())
	for _, q := range workload.TwoSidedQueries(40, 1_000_000, 0.001, 67) {
		_, st, err := tr.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		// At most O(1) wasteful per chunk (A tail, S tail, boundary block,
		// boundary sibling) plus the paid-for explores.
		if st.WastefulIOs > 6*lb+st.UsefulIOs+6 {
			t.Fatalf("query (%d,%d): wasteful=%d useful=%d logB=%d",
				q.A, q.B, st.WastefulIOs, st.UsefulIOs, lb)
		}
	}
}
