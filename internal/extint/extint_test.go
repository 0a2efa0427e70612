package extint

import (
	"testing"
	"testing/quick"

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
		out, st, err := tr.Stab(7)
		if err != nil || out != nil || st.Results != 0 {
			t.Fatalf("%v: stab on empty: %v %v %v", v, out, st, err)
		}
	}
}

func TestRejectsInvalid(t *testing.T) {
	s := disk.MustStore(512)
	if _, err := Build(s, []record.Interval{{Lo: 9, Hi: 2}}, Naive); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

func TestStabMatchesOracle(t *testing.T) {
	for _, v := range []Variant{Naive, PathCached} {
		for _, n := range []int{1, 2, 10, 200, 3000} {
			ivs := workload.UniformIntervals(n, 100_000, 25_000, int64(n)+3)
			s := disk.MustStore(512)
			tr, err := Build(s, ivs, v)
			if err != nil {
				t.Fatalf("%v n=%d: %v", v, n, err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			for _, q := range workload.StabQueries(60, 130_000, 19) {
				got, _, err := tr.Stab(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := inmem.Stab(ivs, q); !inmem.SameIntervals(got, want) {
					t.Fatalf("%v n=%d stab %d: got %d want %d", v, n, q, len(got), len(want))
				}
			}
		}
	}
}

func TestStabNestedAndBoundary(t *testing.T) {
	ivs := workload.NestedIntervals(2000, 80, 1_000_000, 21)
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		// Hit exact endpoints: the q == center path must be exact.
		queries := workload.StabQueries(40, 1_000_000, 23)
		for _, iv := range ivs[:30] {
			queries = append(queries, iv.Lo, iv.Hi)
		}
		for _, q := range queries {
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

func TestStabPointIntervals(t *testing.T) {
	// Degenerate intervals [x,x] plus heavy duplication.
	var ivs []record.Interval
	for i := 0; i < 600; i++ {
		x := int64(i % 13)
		ivs = append(ivs, record.Interval{Lo: x, Hi: x + int64(i%3), ID: uint64(i + 1)})
	}
	for _, v := range []Variant{Naive, PathCached} {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		for q := int64(-1); q <= 16; q++ {
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

func TestStabProperty(t *testing.T) {
	f := func(raw []struct{ Lo, Len uint8 }, q uint8) bool {
		ivs := make([]record.Interval, len(raw))
		for i, r := range raw {
			ivs[i] = record.Interval{Lo: int64(r.Lo), Hi: int64(r.Lo) + int64(r.Len), ID: uint64(i + 1)}
		}
		want := inmem.Stab(ivs, int64(q))
		for _, v := range []Variant{Naive, PathCached} {
			s := disk.MustStore(512)
			tr, err := Build(s, ivs, v)
			if err != nil {
				return false
			}
			got, _, err := tr.Stab(int64(q))
			if err != nil || !inmem.SameIntervals(got, want) {
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

// Theorem 3.5: stabbing costs O(log_B n + t/B) with path caching.
func TestStabIOBound(t *testing.T) {
	const n = 30_000
	ivs := workload.UniformIntervals(n, 10_000_000, 300_000, 27)
	s := disk.MustStore(512)
	tr, err := Build(s, ivs, PathCached)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	lb := logB(n, b)
	for _, q := range workload.StabQueries(80, 10_000_000, 29) {
		s.ResetStats()
		got, st, err := tr.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(s.Stats().Reads)
		// Per chunk: 2 caches + boundary L/R + tails (paid); plus skeleton
		// and the leaf-local page.
		bound := 8*lb + 4*len(got)/b + 8
		if reads > bound {
			t.Fatalf("stab %d: %d reads for t=%d (bound %d) stats=%+v", q, reads, len(got), bound, st)
		}
	}
}

// The naive variant pays ~log2(n/B) per query on nested data; caching wins.
func TestCachingBeatsNaive(t *testing.T) {
	ivs := workload.NestedIntervals(30_000, 300, 1<<40, 31)
	readsFor := func(v Variant) float64 {
		s := disk.MustStore(512)
		tr, err := Build(s, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		queries := workload.StabQueries(50, 1<<40, 33)
		for _, q := range queries {
			s.ResetStats()
			if _, _, err := tr.Stab(q); err != nil {
				t.Fatal(err)
			}
			total += s.Stats().Reads
		}
		return float64(total) / float64(len(queries))
	}
	naive := readsFor(Naive)
	cached := readsFor(PathCached)
	if cached >= naive {
		t.Fatalf("caching did not pay: naive=%.1f cached=%.1f reads/query", naive, cached)
	}
}

// Space: O((n/B)·log B) pages.
func TestSpaceBound(t *testing.T) {
	const n = 30_000
	ivs := workload.UniformIntervals(n, 10_000_000, 300_000, 35)
	s := disk.MustStore(512)
	tr, err := Build(s, ivs, PathCached)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.B()
	bound := 8 * (n/b + 1) * (log2(b) + 1)
	if got := tr.TotalPages(); got > bound {
		sk, lists, caches, locals := tr.SpacePages()
		t.Fatalf("pages=%d bound=%d (skel=%d lists=%d caches=%d locals=%d)",
			got, bound, sk, lists, caches, locals)
	}
	if s.NumPages() != tr.TotalPages() {
		t.Fatalf("store has %d pages, structure claims %d", s.NumPages(), tr.TotalPages())
	}
}
