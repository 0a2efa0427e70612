package extpst

import (
	"testing"
	"testing/quick"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func buildHier(t *testing.T, pts []record.Point, levels int) (*Hierarchical, *disk.Store) {
	t.Helper()
	s := disk.MustStore(512)
	h, err := BuildHierarchical(s, pts, levels)
	if err != nil {
		t.Fatal(err)
	}
	return h, s
}

func TestHierarchicalEmpty(t *testing.T) {
	h, _ := buildHier(t, nil, 2)
	out, st, err := h.Query(0, 0)
	if err != nil || out != nil || st.Results != 0 {
		t.Fatalf("query on empty: %v %v %v", out, st, err)
	}
	if h.TotalPages() != 0 {
		t.Fatalf("empty hierarchy claims %d pages", h.TotalPages())
	}
}

func TestHierarchicalRejectsBadLevels(t *testing.T) {
	s := disk.MustStore(512)
	if _, err := BuildHierarchical(s, nil, 0); err == nil {
		t.Fatal("levels=0 accepted")
	}
}

func TestHierarchicalMatchesOracle(t *testing.T) {
	for _, levels := range []int{1, 2, 3, 100} {
		for _, n := range []int{1, 10, 300, 5000, 20_000} {
			pts := workload.UniformPoints(n, 100_000, int64(n)*7+int64(levels))
			h, _ := buildHier(t, pts, levels)
			if h.Len() != n {
				t.Fatalf("Len = %d", h.Len())
			}
			for _, sel := range []float64{0.002, 0.05, 0.4} {
				for _, q := range workload.TwoSidedQueries(10, 100_000, sel, 71) {
					got, _, err := h.Query(q.A, q.B)
					if err != nil {
						t.Fatal(err)
					}
					want := inmem.TwoSided(pts, q.A, q.B)
					if !inmem.SamePoints(got, want) {
						t.Fatalf("levels=%d n=%d query (%d,%d): got %d want %d",
							levels, n, q.A, q.B, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestHierarchicalExtremeCorners(t *testing.T) {
	pts := workload.UniformPoints(8000, 10_000, 73)
	for _, levels := range []int{2, 3} {
		h, _ := buildHier(t, pts, levels)
		for _, c := range []struct{ a, b int64 }{
			{-1 << 40, -1 << 40},
			{0, 0},
			{9_999, 9_999},
			{10_000, 0},
			{0, 10_000},
		} {
			got, _, err := h.Query(c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(pts, c.a, c.b); !inmem.SamePoints(got, want) {
				t.Fatalf("levels=%d corner (%d,%d): got %d want %d",
					levels, c.a, c.b, len(got), len(want))
			}
		}
	}
}

func TestHierarchicalSkewedWorkloads(t *testing.T) {
	workloads := map[string][]record.Point{
		"clustered": workload.ClusteredPoints(12_000, 4, 100_000, 1500, 79),
		"diagonal":  workload.DiagonalPoints(12_000, 100_000, 3000, 83),
		"zipf":      workload.ZipfPoints(12_000, 100_000, 1.2, 89),
	}
	for name, pts := range workloads {
		h, _ := buildHier(t, pts, 2)
		for _, q := range workload.TwoSidedQueries(20, 100_000, 0.01, 97) {
			got, _, err := h.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(pts, q.A, q.B); !inmem.SamePoints(got, want) {
				t.Fatalf("%s query (%d,%d): got %d want %d", name, q.A, q.B, len(got), len(want))
			}
		}
	}
}

func TestHierarchicalProperty(t *testing.T) {
	f := func(raw []struct{ X, Y int16 }, a, b int16) bool {
		pts := make([]record.Point, len(raw))
		for i, r := range raw {
			pts[i] = record.Point{X: int64(r.X), Y: int64(r.Y), ID: uint64(i + 1)}
		}
		want := inmem.TwoSided(pts, int64(a), int64(b))
		for _, levels := range []int{2, 3} {
			s := disk.MustStore(512)
			h, err := BuildHierarchical(s, pts, levels)
			if err != nil {
				return false
			}
			got, _, err := h.Query(int64(a), int64(b))
			if err != nil || !inmem.SamePoints(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 4.3: the two-level scheme keeps optimal query I/O.
func TestHierarchicalQueryIOBound(t *testing.T) {
	const n = 60_000
	pts := workload.UniformPoints(n, 1_000_000, 101)
	for _, levels := range []int{2, 3} {
		h, s := buildHier(t, pts, levels)
		b := h.B()
		for _, sel := range []float64{0.0005, 0.01, 0.1} {
			for _, qy := range workload.TwoSidedQueries(20, 1_000_000, sel, 103) {
				s.ResetStats()
				got, st, err := h.Query(qy.A, qy.B)
				if err != nil {
					t.Fatal(err)
				}
				reads := int(s.Stats().Reads)
				lb := logB(n, b)
				bound := 10*lb + 10*levels + 4*len(got)/b + 10
				if reads > bound {
					t.Fatalf("levels=%d sel=%g: %d reads for t=%d (bound %d) stats=%+v",
						levels, sel, reads, len(got), bound, st)
				}
			}
		}
	}
}

// The space ladder of Section 4: two-level beats Segmented, and the
// recursive factor keeps shrinking (log B -> log log B -> log* B). The
// separation is asymptotic in B, so it is checked in the paper's regime
// B >> log B (4 KiB pages, B=170); at tiny B the constant factors of the
// extra X/Y lists dominate — E2 reports that crossover.
func TestHierarchicalSpaceLadder(t *testing.T) {
	const n = 200_000
	const pageSize = 4096
	pts := workload.UniformPoints(n, 10_000_000, 107)

	sSeg := disk.MustStore(pageSize)
	seg, err := Build(sSeg, pts, Segmented)
	if err != nil {
		t.Fatal(err)
	}
	sTwo := disk.MustStore(pageSize)
	two, err := BuildHierarchical(sTwo, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	sMulti := disk.MustStore(pageSize)
	multi, err := BuildHierarchical(sMulti, pts, 100)
	if err != nil {
		t.Fatal(err)
	}

	b := seg.B()
	base := n/b + 1
	if two.TotalPages() >= seg.TotalPages() {
		t.Fatalf("two-level (%d pages) not smaller than segmented (%d pages)",
			two.TotalPages(), seg.TotalPages())
	}
	// At realistic B, log* B equals log log B (both ~3 for B=170), so the
	// multilevel scheme cannot beat two-level — each extra level re-copies
	// the X/Y lists. It must stay within the same order.
	if multi.TotalPages() > 3*two.TotalPages() {
		t.Fatalf("multilevel (%d pages) not within 3x two-level (%d pages)",
			multi.TotalPages(), two.TotalPages())
	}
	if multi.TotalPages() >= seg.TotalPages()*2 {
		t.Fatalf("multilevel (%d pages) blew past segmented (%d pages)",
			multi.TotalPages(), seg.TotalPages())
	}
	// Two-level is O((n/B)·log log B): generous constant check.
	loglogB := log2(log2(b) + 1)
	if two.TotalPages() > 8*base*(loglogB+1) {
		t.Fatalf("two-level uses %d pages, want O((n/B)loglogB) ~ %d", two.TotalPages(), base*(loglogB+1))
	}
}

// Storage accounting must agree with the store.
func TestHierarchicalSpaceAccounting(t *testing.T) {
	pts := workload.UniformPoints(20_000, 1_000_000, 109)
	h, s := buildHier(t, pts, 2)
	if s.NumPages() != h.TotalPages() {
		t.Fatalf("store has %d pages, structure claims %d", s.NumPages(), h.TotalPages())
	}
}
