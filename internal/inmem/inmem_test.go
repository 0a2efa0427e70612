package inmem

import (
	"math"
	"testing"
	"testing/quick"

	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func TestPSTMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 500} {
		pts := workload.UniformPoints(n, 1000, int64(n)+7)
		pst := NewPST(pts)
		if pst.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, pst.Len())
		}
		queries := workload.TwoSidedQueries(20, 1000, 0.1, 42)
		for _, q := range queries {
			got := pst.TwoSided(q.A, q.B)
			want := TwoSided(pts, q.A, q.B)
			if !SamePoints(got, want) {
				t.Fatalf("n=%d 2-sided (%d,%d): got %d pts want %d", n, q.A, q.B, len(got), len(want))
			}
		}
		for _, q := range workload.ThreeSidedQueries(20, 1000, 0.3, 0.1, 43) {
			got := pst.ThreeSided(q.A1, q.A2, q.B)
			want := ThreeSided(pts, q.A1, q.A2, q.B)
			if !SamePoints(got, want) {
				t.Fatalf("n=%d 3-sided (%d,%d,%d): got %d want %d", n, q.A1, q.A2, q.B, len(got), len(want))
			}
		}
	}
}

func TestPSTDuplicateCoordinates(t *testing.T) {
	// Many duplicate x values and y values must not confuse routing.
	var pts []record.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, record.Point{X: int64(i % 5), Y: int64(i % 7), ID: uint64(i)})
	}
	pst := NewPST(pts)
	for a := int64(-1); a <= 6; a++ {
		for b := int64(-1); b <= 8; b++ {
			got := pst.TwoSided(a, b)
			want := TwoSided(pts, a, b)
			if !SamePoints(got, want) {
				t.Fatalf("corner (%d,%d): got %d want %d", a, b, len(got), len(want))
			}
		}
	}
}

func TestPSTProperty(t *testing.T) {
	f := func(raw []struct{ X, Y int16 }, a, b int16) bool {
		pts := make([]record.Point, len(raw))
		for i, r := range raw {
			pts[i] = record.Point{X: int64(r.X), Y: int64(r.Y), ID: uint64(i + 1)}
		}
		pst := NewPST(pts)
		return SamePoints(pst.TwoSided(int64(a), int64(b)), TwoSided(pts, int64(a), int64(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTreeMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 33, 400} {
		ivs := workload.UniformIntervals(n, 1000, 200, int64(n)+1)
		st := NewSegmentTree(ivs)
		if st.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, st.Len())
		}
		for _, q := range workload.StabQueries(50, 1300, 9) {
			got := st.Stab(q)
			want := Stab(ivs, q)
			if !SameIntervals(got, want) {
				t.Fatalf("n=%d stab %d: got %d want %d", n, q, len(got), len(want))
			}
		}
	}
}

func TestSegmentTreeEndpointsExact(t *testing.T) {
	ivs := []record.Interval{{Lo: 10, Hi: 20, ID: 1}, {Lo: 20, Hi: 30, ID: 2}, {Lo: 5, Hi: 10, ID: 3}}
	st := NewSegmentTree(ivs)
	for q, wantIDs := range map[int64][]uint64{
		9:  {3},
		10: {1, 3},
		20: {1, 2},
		30: {2},
		31: nil,
		4:  nil,
	} {
		got := st.Stab(q)
		ids := map[uint64]bool{}
		for _, iv := range got {
			ids[iv.ID] = true
		}
		if len(got) != len(wantIDs) {
			t.Fatalf("stab %d: got %v want ids %v", q, got, wantIDs)
		}
		for _, id := range wantIDs {
			if !ids[id] {
				t.Fatalf("stab %d: missing id %d in %v", q, id, got)
			}
		}
	}
}

func TestSegmentTreeIgnoresInvalid(t *testing.T) {
	ivs := []record.Interval{
		{Lo: 10, Hi: 5, ID: 1},            // inverted
		{Lo: 0, Hi: math.MaxInt64, ID: 2}, // would overflow the +1 mapping
		{Lo: 1, Hi: 3, ID: 3},             // fine
	}
	st := NewSegmentTree(ivs)
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if got := st.Stab(2); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("stab 2 = %v", got)
	}
}

func TestSegmentTreeStoredIsNLogN(t *testing.T) {
	n := 1024
	ivs := workload.UniformIntervals(n, 100000, 30000, 5)
	st := NewSegmentTree(ivs)
	// Each interval is stored on at most 2*ceil(log2(#leaves)) nodes.
	leaves := 2 * n
	maxCopies := 2 * (bitsLen(leaves) + 1)
	if st.Stored() > n*maxCopies {
		t.Fatalf("stored %d copies for %d intervals (max per interval %d)", st.Stored(), n, maxCopies)
	}
	if st.Stored() < n {
		t.Fatalf("stored %d < n=%d: intervals lost", st.Stored(), n)
	}
}

func bitsLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

func TestIntervalTreeMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 33, 400} {
		ivs := workload.UniformIntervals(n, 1000, 200, int64(n)+2)
		it := NewIntervalTree(ivs)
		if it.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, it.Len())
		}
		for _, q := range workload.StabQueries(50, 1300, 11) {
			got := it.Stab(q)
			want := Stab(ivs, q)
			if !SameIntervals(got, want) {
				t.Fatalf("n=%d stab %d: got %d want %d", n, q, len(got), len(want))
			}
		}
	}
}

func TestIntervalTreeNested(t *testing.T) {
	ivs := workload.NestedIntervals(300, 40, 1_000_000, 3)
	it := NewIntervalTree(ivs)
	st := NewSegmentTree(ivs)
	for _, q := range workload.StabQueries(100, 1_000_000, 13) {
		want := Stab(ivs, q)
		if got := it.Stab(q); !SameIntervals(got, want) {
			t.Fatalf("interval tree stab %d: got %d want %d", q, len(got), len(want))
		}
		if got := st.Stab(q); !SameIntervals(got, want) {
			t.Fatalf("segment tree stab %d: got %d want %d", q, len(got), len(want))
		}
	}
}

func TestIntervalTreeProperty(t *testing.T) {
	f := func(raw []struct{ Lo, Len uint8 }, q uint8) bool {
		ivs := make([]record.Interval, len(raw))
		for i, r := range raw {
			ivs[i] = record.Interval{Lo: int64(r.Lo), Hi: int64(r.Lo) + int64(r.Len), ID: uint64(i + 1)}
		}
		it := NewIntervalTree(ivs)
		return SameIntervals(it.Stab(int64(q)), Stab(ivs, int64(q)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTreeProperty(t *testing.T) {
	f := func(raw []struct{ Lo, Len uint8 }, q uint8) bool {
		ivs := make([]record.Interval, len(raw))
		for i, r := range raw {
			ivs[i] = record.Interval{Lo: int64(r.Lo), Hi: int64(r.Lo) + int64(r.Len), ID: uint64(i + 1)}
		}
		st := NewSegmentTree(ivs)
		return SameIntervals(st.Stab(int64(q)), Stab(ivs, int64(q)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
