package extseg

import (
	"math"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func TestEmptyTree(t *testing.T) {
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := tr.Stab(5)
		if err != nil || out != nil || st.Results != 0 {
			t.Fatalf("%v: stab on empty: %v %v %v", v, out, st, err)
		}
	}
}

func TestRejectsInvalid(t *testing.T) {
	s := disk.MustStore(512)
	if _, err := Build(s, []record.Interval{{Lo: 5, Hi: 1}}, Naive); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if _, err := Build(s, []record.Interval{{Lo: 0, Hi: math.MaxInt64}}, Naive); err == nil {
		t.Fatal("MaxInt64 Hi accepted")
	}
}

func TestStabMatchesOracle(t *testing.T) {
	for _, v := range []Variant{Naive, PathCached} {
		for _, n := range []int{1, 2, 10, 100, 2000} {
			ivs := workload.UniformIntervals(n, 100_000, 20_000, int64(n))
			s := disk.MustStore(512)
			tr, err := Build(s, ivs, v)
			if err != nil {
				t.Fatalf("%v n=%d: %v", v, n, err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			for _, q := range workload.StabQueries(60, 130_000, 7) {
				got, st, err := tr.Stab(q)
				if err != nil {
					t.Fatal(err)
				}
				want := inmem.Stab(ivs, q)
				if !inmem.SameIntervals(got, want) {
					t.Fatalf("%v n=%d stab %d: got %d want %d", v, n, q, len(got), len(want))
				}
				if st.Results != len(got) {
					t.Fatalf("stats results %d != %d", st.Results, len(got))
				}
			}
		}
	}
}

func TestStabNestedWorkload(t *testing.T) {
	ivs := workload.NestedIntervals(1500, 60, 1_000_000, 9)
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.StabQueries(50, 1_000_000, 10) {
			got, _, err := tr.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.Stab(ivs, q); !inmem.SameIntervals(got, want) {
				t.Fatalf("%v stab %d: got %d want %d", v, q, len(got), len(want))
			}
		}
	}
}

func TestStabBoundaryQueries(t *testing.T) {
	ivs := []record.Interval{
		{Lo: 10, Hi: 20, ID: 1},
		{Lo: 20, Hi: 30, ID: 2},
		{Lo: 15, Hi: 15, ID: 3},
	}
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int64{9, 10, 15, 16, 20, 30, 31} {
			got, _, err := tr.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.Stab(ivs, q); !inmem.SameIntervals(got, want) {
				t.Fatalf("%v stab %d: got %v want %v", v, q, got, want)
			}
		}
	}
}

func TestDuplicateEndpointsCorrect(t *testing.T) {
	// The paper assumes distinct endpoints for the space bound; correctness
	// must hold regardless.
	var ivs []record.Interval
	for i := 0; i < 500; i++ {
		ivs = append(ivs, record.Interval{Lo: 100, Hi: 200 + int64(i%3), ID: uint64(i + 1)})
	}
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int64{99, 100, 150, 200, 201, 202, 203} {
			got, _, err := tr.Stab(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.Stab(ivs, q); !inmem.SameIntervals(got, want) {
				t.Fatalf("%v stab %d: got %d want %d", v, q, len(got), len(want))
			}
		}
	}
}

// The headline claim (Theorem 3.4): path-cached stabbing queries cost
// O(log_B n + t/B) I/Os; the naive variant pays up to one I/O per path node.
func TestQueryIOBound(t *testing.T) {
	const n = 20_000
	ivs := workload.UniformIntervals(n, 1_000_000, 50_000, 3)
	s := disk.MustStore(512)
	tr, err := Build(s, ivs, PathCached)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	// log_B n path pages + cache + local + paid-for list pages.
	for _, q := range workload.StabQueries(80, 1_000_000, 4) {
		s.ResetStats()
		got, st, err := tr.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(s.Stats().Reads)
		bound := logB(2*n, (512-2)/64) + 3*len(got)/b + 8
		if reads > bound {
			t.Fatalf("stab %d: %d reads for t=%d (bound %d), stats %+v",
				q, reads, len(got), bound, st)
		}
		// Wasteful I/Os must be O(1) + paid: at most useful + additive
		// constant (cache tail, local list, last cover pages).
		if st.WastefulIOs > st.UsefulIOs+6 {
			t.Fatalf("stab %d: wasteful=%d useful=%d", q, st.WastefulIOs, st.UsefulIOs)
		}
	}
}

// The naive variant must show the Figure 3 pathology on nested data: many
// wasteful I/Os per query, roughly one per underfull cover-list on the path.
func TestNaiveWastefulGrowsWithDepth(t *testing.T) {
	ivs := workload.NestedIntervals(20_000, 200, 1<<40, 5)
	sNaive := disk.MustStore(512)
	naive, err := Build(sNaive, ivs, Naive)
	if err != nil {
		t.Fatal(err)
	}
	sCached := disk.MustStore(512)
	cached, err := Build(sCached, ivs, PathCached)
	if err != nil {
		t.Fatal(err)
	}
	var wNaive, wCached, queries int
	for _, q := range workload.StabQueries(60, 1<<40, 6) {
		_, stN, err := naive.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		_, stC, err := cached.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		wNaive += stN.WastefulIOs
		wCached += stC.WastefulIOs
		queries++
	}
	if wCached >= wNaive {
		t.Fatalf("caching did not reduce wasteful I/Os: naive=%d cached=%d over %d queries",
			wNaive, wCached, queries)
	}
}

// Space: the cached tree costs O((n/B) log n) pages.
func TestSpaceBound(t *testing.T) {
	const n = 20_000
	ivs := workload.UniformIntervals(n, 10_000_000, 500_000, 8)
	s := disk.MustStore(512)
	tr, err := Build(s, ivs, PathCached)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	logN := 1
	for v := 2 * n; v > 1; v /= 2 {
		logN++
	}
	bound := 6 * (n/b + 1) * logN
	if got := tr.TotalPages(); got > bound {
		sk, cov, loc, cache := tr.SpacePages()
		t.Fatalf("pages=%d bound=%d (skel=%d cover=%d local=%d cache=%d)",
			got, bound, sk, cov, loc, cache)
	}
	// And the store agrees with the structure's own accounting.
	if s.NumPages() != tr.TotalPages() {
		t.Fatalf("store has %d pages, structure claims %d", s.NumPages(), tr.TotalPages())
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
