package pathcache

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pathcache/internal/workload"
)

func uniformPoints(n int, max int64, seed int64) []Point {
	rec := workload.UniformPoints(n, max, seed)
	pts := make([]Point, len(rec))
	for i, p := range rec {
		pts[i] = Point(p)
	}
	return pts
}

func uniformIntervals(n int, max, maxLen int64, seed int64) []Interval {
	rec := workload.UniformIntervals(n, max, maxLen, seed)
	ivs := make([]Interval, len(rec))
	for i, iv := range rec {
		ivs[i] = Interval(iv)
	}
	return ivs
}

func TestTwoSidedIndexAllSchemes(t *testing.T) {
	pts := uniformPoints(8000, 100_000, 301)
	for _, sc := range allSchemes {
		ix, err := NewTwoSidedIndex(pts, sc, &Options{PageSize: 512})
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if ix.Len() != len(pts) {
			t.Fatalf("%v: Len=%d", sc, ix.Len())
		}
		if ix.Pages() <= 0 {
			t.Fatalf("%v: Pages=%d", sc, ix.Pages())
		}
		for _, q := range workload.TwoSidedQueries(20, 100_000, 0.01, 303) {
			got, prof, err := ix.QueryProfile(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			want := brute(ShapeTwoSided, pts, [4]int64{q.A, q.B})
			if !sameSet(got, want) {
				t.Fatalf("%v query (%d,%d): got %d want %d", sc, q.A, q.B, len(got), len(want))
			}
			if prof.Results != len(got) {
				t.Fatalf("%v: profile results %d != %d", sc, prof.Results, len(got))
			}
		}
	}
}

func TestTwoSidedRejectsUnknownScheme(t *testing.T) {
	if _, err := NewTwoSidedIndex(nil, Scheme(99), nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeIKO:        "iko",
		SchemeBasic:      "basic",
		SchemeSegmented:  "segmented",
		SchemeTwoLevel:   "two-level",
		SchemeMultilevel: "multilevel",
	}
	for sc, s := range want {
		if sc.String() != s {
			t.Errorf("%d.String() = %q, want %q", sc, sc.String(), s)
		}
	}
}

func TestThreeSidedIndex(t *testing.T) {
	pts := uniformPoints(8000, 100_000, 305)
	ix, err := NewThreeSidedIndex(pts, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.ThreeSidedQueries(20, 100_000, 0.2, 0.02, 307) {
		got, _, err := ix.QueryThreeSided(q.A1, q.A2, q.B)
		if err != nil {
			t.Fatal(err)
		}
		var want []Point
		for _, p := range pts {
			if p.X >= q.A1 && p.X <= q.A2 && p.Y >= q.B {
				want = append(want, p)
			}
		}
		if !sameSet(got, want) {
			t.Fatalf("query (%d,%d,%d): got %d want %d", q.A1, q.A2, q.B, len(got), len(want))
		}
	}
}

func TestDynamicIndex(t *testing.T) {
	ix, err := NewDynamicIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(3000, 50_000, 309)
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[:1000] {
		if err := ix.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	live := pts[1000:]
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
	for _, q := range workload.TwoSidedQueries(20, 50_000, 0.05, 311) {
		got, err := ix.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(ShapeTwoSided, live, [4]int64{q.A, q.B}); !sameSet(got, want) {
			t.Fatalf("query (%d,%d): got %d want %d", q.A, q.B, len(got), len(want))
		}
	}
}

func TestStabbingIndexStatic(t *testing.T) {
	ivs := uniformIntervals(5000, 100_000, 10_000, 313)
	for _, sc := range []Scheme{SchemeSegmented, SchemeTwoLevel} {
		ix, err := NewStabbingIndex(ivs, sc, &Options{PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.StabQueries(40, 110_000, 315) {
			got, _, err := ix.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(ShapeStab, ivs, [4]int64{q}); !sameSet(got, want) {
				t.Fatalf("%v stab %d: got %d want %d", sc, q, len(got), len(want))
			}
		}
	}
	if _, err := NewStabbingIndex([]Interval{{Lo: 5, Hi: 1}}, SchemeSegmented, nil); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestDynamicStabbingIndex(t *testing.T) {
	ix, err := NewDynamicStabbingIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	ivs := uniformIntervals(2000, 50_000, 5_000, 317)
	for _, iv := range ivs {
		if err := ix.Insert(iv); err != nil {
			t.Fatal(err)
		}
	}
	for _, iv := range ivs[:700] {
		if err := ix.Delete(iv); err != nil {
			t.Fatal(err)
		}
	}
	live := ivs[700:]
	for _, q := range workload.StabQueries(30, 60_000, 319) {
		got, err := ix.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(ShapeStab, live, [4]int64{q}); !sameSet(got, want) {
			t.Fatalf("stab %d: got %d want %d", q, len(got), len(want))
		}
	}
	if err := ix.Insert(Interval{Lo: 9, Hi: 3}); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestSegmentAndIntervalIndexes(t *testing.T) {
	ivs := uniformIntervals(4000, 100_000, 20_000, 321)
	for _, cached := range []bool{false, true} {
		seg, err := NewSegmentIndex(ivs, cached, &Options{PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		itv, err := NewIntervalIndex(ivs, cached, &Options{PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.StabQueries(40, 120_000, 323) {
			want := brute(ShapeStab, ivs, [4]int64{q})
			got, prof, err := seg.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(got, want) {
				t.Fatalf("segment cached=%v stab %d: got %d want %d", cached, q, len(got), len(want))
			}
			if prof.Results != len(got) {
				t.Fatal("segment profile mismatch")
			}
			got, _, err = itv.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(got, want) {
				t.Fatalf("interval cached=%v stab %d: got %d want %d", cached, q, len(got), len(want))
			}
		}
		// Theorem 3.5 vs 3.4: the interval tree must use less space than the
		// segment tree (log B vs log n factor).
		if cached && itv.Pages() >= seg.Pages() {
			t.Fatalf("interval tree (%d pages) not smaller than segment tree (%d pages)",
				itv.Pages(), seg.Pages())
		}
	}
}

func TestRangeIndex(t *testing.T) {
	ix, err := NewRangeIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(325))
	n := 5000
	for i := 0; i < n; i++ {
		if err := ix.Insert(rng.Int63n(10_000), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d", ix.Len())
	}
	count := 0
	if err := ix.Range(2000, 4000, func(k int64, v uint64) bool {
		if k < 2000 || k > 4000 {
			t.Fatalf("range returned key %d", k)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("range returned nothing")
	}
	if err := ix.Delete(99_999, 1); err == nil {
		t.Fatal("deleting absent pair succeeded")
	}
}

// F1 (Figure 1): the query-class containment chain. A diagonal-corner query
// is a special 2-sided query; a 2-sided query is a 3-sided query with an
// unbounded side; stabbing reduces to diagonal-corner. All four give
// identical answers on the same data.
func TestF1QueryClassReductions(t *testing.T) {
	ivs := uniformIntervals(3000, 50_000, 8_000, 327)
	pts := make([]Point, len(ivs))
	for i, iv := range ivs {
		pts[i] = Point{X: -iv.Lo, Y: iv.Hi, ID: iv.ID} // diagonal-corner reduction
	}
	two, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewThreeSidedIndex(pts, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	stab, err := NewStabbingIndex(ivs, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmentIndex(ivs, true, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.StabQueries(30, 60_000, 329) {
		// Stabbing via four routes.
		fromStab, _, err := stab.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		fromSeg, _, err := seg.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		fromTwo, _, err := two.Query(-q, q) // diagonal-corner query
		if err != nil {
			t.Fatal(err)
		}
		fromThree, _, err := three.QueryThreeSided(-q, int64(1)<<62, q) // 3-sided with open right
		if err != nil {
			t.Fatal(err)
		}
		want := brute(ShapeStab, ivs, [4]int64{q})
		if !sameSet(fromStab, want) {
			t.Fatalf("stabbing index wrong at %d", q)
		}
		if !sameSet(fromSeg, want) {
			t.Fatalf("segment index wrong at %d", q)
		}
		if len(fromTwo) != len(want) || len(fromThree) != len(want) {
			t.Fatalf("reduction mismatch at %d: stab=%d 2-sided=%d 3-sided=%d",
				q, len(want), len(fromTwo), len(fromThree))
		}
	}
}

// F2 (Figure 2): with a buffer pool the same queries cost fewer store I/Os
// (warm pages), demonstrating the pager split.
func TestBufferPoolReducesStoreReads(t *testing.T) {
	pts := uniformPoints(20_000, 100_000, 331)
	cold, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, BufferPoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.TwoSidedQueries(50, 100_000, 0.01, 333)
	cold.ResetStats()
	warm.ResetStats()
	for _, q := range queries {
		if _, _, err := cold.Query(q.A, q.B); err != nil {
			t.Fatal(err)
		}
		if _, _, err := warm.Query(q.A, q.B); err != nil {
			t.Fatal(err)
		}
	}
	if warm.Stats().Reads >= cold.Stats().Reads {
		t.Fatalf("buffer pool did not reduce store reads: warm=%d cold=%d",
			warm.Stats().Reads, cold.Stats().Reads)
	}
}

func TestStatsAndB(t *testing.T) {
	if b := B(4096); b != (4096-10)/24 {
		t.Fatalf("B(4096) = %d", b)
	}
	pts := uniformPoints(100, 1000, 335)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Pages == 0 {
		t.Fatal("no pages reported")
	}
	ix.ResetStats()
	if s := ix.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if _, _, err := ix.Query(0, 0); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Reads == 0 {
		t.Fatal("query cost no reads")
	}
}

func TestDynamicThreeSidedIndex(t *testing.T) {
	ix, err := NewDynamicThreeSidedIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(4000, 50_000, 341)
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[:1500] {
		if err := ix.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	live := pts[1500:]
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
	for _, q := range workload.ThreeSidedQueries(20, 50_000, 0.3, 0.02, 343) {
		got, err := ix.Query(q.A1, q.A2, q.B)
		if err != nil {
			t.Fatal(err)
		}
		var want []Point
		for _, p := range live {
			if p.X >= q.A1 && p.X <= q.A2 && p.Y >= q.B {
				want = append(want, p)
			}
		}
		if !sameSet(got, want) {
			t.Fatalf("query (%d,%d,%d): got %d want %d", q.A1, q.A2, q.B, len(got), len(want))
		}
	}
	if ix.Pages() <= 0 || ix.Stats().Reads < 0 {
		t.Fatal("stats broken")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowIndex(t *testing.T) {
	pts := uniformPoints(8000, 100_000, 351)
	ix, err := NewWindowIndex(pts, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(pts) || ix.Pages() <= 0 {
		t.Fatalf("Len=%d Pages=%d", ix.Len(), ix.Pages())
	}
	rng := rand.New(rand.NewSource(353))
	for i := 0; i < 30; i++ {
		x1 := rng.Int63n(100_000)
		x2 := x1 + rng.Int63n(100_000-x1+1)
		y1 := rng.Int63n(100_000)
		y2 := y1 + rng.Int63n(100_000-y1+1)
		got, prof, err := ix.WindowQuery(x1, x2, y1, y2)
		if err != nil {
			t.Fatal(err)
		}
		var want []Point
		for _, p := range pts {
			if p.X >= x1 && p.X <= x2 && p.Y >= y1 && p.Y <= y2 {
				want = append(want, p)
			}
		}
		if !sameSet(got, want) {
			t.Fatalf("window (%d,%d)x(%d,%d): got %d want %d", x1, x2, y1, y2, len(got), len(want))
		}
		if prof.Results != len(got) {
			t.Fatal("profile mismatch")
		}
	}
}

func TestDynamicBulkLoad(t *testing.T) {
	pts := uniformPoints(5000, 50_000, 361)
	two, err := NewDynamicIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := two.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	if two.Len() != len(pts) {
		t.Fatalf("Len = %d", two.Len())
	}
	three, err := NewDynamicThreeSidedIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := three.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	if three.Len() != len(pts) {
		t.Fatalf("3-sided Len = %d", three.Len())
	}
	for _, q := range workload.TwoSidedQueries(15, 50_000, 0.03, 363) {
		got, err := two.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(ShapeTwoSided, pts, [4]int64{q.A, q.B}); !sameSet(got, want) {
			t.Fatalf("bulk 2-sided query (%d,%d): got %d want %d", q.A, q.B, len(got), len(want))
		}
		got3, err := three.Query(q.A, 1<<40, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(got3, brute(ShapeTwoSided, pts, [4]int64{q.A, q.B})) {
			t.Fatalf("bulk 3-sided query mismatch at (%d,%d)", q.A, q.B)
		}
	}
}

// TestBuildDynamicRefusesDuplicate pins the seed's uniqueness contract: a
// record given twice by its full (X, Y, ID) triple is refused with an
// error naming it, rather than counted twice by Len and answered once.
func TestBuildDynamicRefusesDuplicate(t *testing.T) {
	p, q := Point{X: 1, Y: 2, ID: 3}, Point{X: 4, Y: 5, ID: 6}
	ix, err := BuildDynamic("twosided", []Point{p, p, q}, nil)
	if err == nil {
		defer ix.Close()
		t.Fatalf("BuildDynamic with %v twice succeeded (Len %d)", p, ix.Len())
	}
	if !strings.Contains(err.Error(), "(1,2)#3") {
		t.Fatalf("err = %v, want it to name the record (1,2)#3", err)
	}
	ix, err = BuildDynamic("twosided", []Point{p, {X: 1, Y: 2, ID: 4}, q}, nil)
	if err != nil {
		t.Fatalf("same X and Y under distinct IDs: %v", err)
	}
	defer ix.Close()
	got, _, err := ix.Query(math.MinInt64, math.MinInt64)
	if err != nil || len(got) != 3 || ix.Len() != 3 {
		t.Fatalf("full query = %d records (err %v), Len %d; want 3 and 3", len(got), err, ix.Len())
	}
}
