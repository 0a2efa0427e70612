package pstcore

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pathcache/internal/record"
)

func randomPoints(n int, seed int64) []record.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]record.Point, n)
	for i := range pts {
		pts[i] = record.Point{X: rng.Int63n(1000), Y: rng.Int63n(1000), ID: uint64(i + 1)}
	}
	return pts
}

// checkInvariants verifies the PST structure: node capacity, heap order on
// y, x-partition by the split point, and that every input point appears
// exactly once.
func checkInvariants(t *testing.T, root *MemNode, b int, want int) {
	t.Helper()
	seen := map[record.Point]bool{}
	var walk func(n *MemNode, maxY int64)
	walk = func(n *MemNode, maxY int64) {
		if n == nil {
			return
		}
		if len(n.Pts) == 0 {
			t.Fatal("node with no points")
		}
		if len(n.Pts) > b {
			t.Fatalf("node holds %d > b=%d points", len(n.Pts), b)
		}
		for i, p := range n.Pts {
			if p.Y > maxY {
				t.Fatalf("heap violation: point %v above parent min %d", p, maxY)
			}
			if i > 0 && n.Pts[i-1].Y < p.Y {
				t.Fatalf("node points not y-descending at %d", i)
			}
			if seen[p] {
				t.Fatalf("point %v duplicated", p)
			}
			seen[p] = true
		}
		if n.MinY != n.Pts[len(n.Pts)-1].Y {
			t.Fatalf("MinY %d != last point y %d", n.MinY, n.Pts[len(n.Pts)-1].Y)
		}
		if (n.Left != nil || n.Right != nil) && len(n.Pts) != b {
			t.Fatal("internal node not full")
		}
		// x-partition: left subtree strictly Less than SplitPt, right not.
		var assert func(c *MemNode, left bool)
		assert = func(c *MemNode, left bool) {
			if c == nil {
				return
			}
			for _, p := range c.Pts {
				if left != p.Less(n.SplitPt) {
					t.Fatalf("partition violation: %v left=%v split=%v", p, left, n.SplitPt)
				}
			}
			assert(c.Left, left)
			assert(c.Right, left)
		}
		assert(n.Left, true)
		assert(n.Right, false)
		walk(n.Left, n.MinY)
		walk(n.Right, n.MinY)
	}
	walk(root, int64(1)<<62)
	if len(seen) != want {
		t.Fatalf("tree holds %d points, want %d", len(seen), want)
	}
}

func TestBuildEmpty(t *testing.T) {
	if Build(nil, 4) != nil {
		t.Fatal("empty build returned a node")
	}
}

func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 50, 500} {
		for _, b := range []int{2, 4, 16} {
			pts := randomPoints(n, int64(n*b))
			SortAsc(pts)
			root := Build(pts, b)
			checkInvariants(t, root, b, n)
		}
	}
}

func TestBuildDuplicateCoordinates(t *testing.T) {
	var pts []record.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, record.Point{X: int64(i % 3), Y: int64(i % 2), ID: uint64(i + 1)})
	}
	SortAsc(pts)
	root := Build(pts, 8)
	checkInvariants(t, root, 8, 200)
}

func TestBuildProperty(t *testing.T) {
	f := func(raw []struct{ X, Y uint8 }) bool {
		pts := make([]record.Point, len(raw))
		for i, r := range raw {
			pts[i] = record.Point{X: int64(r.X), Y: int64(r.Y), ID: uint64(i + 1)}
		}
		SortAsc(pts)
		root := Build(pts, 4)
		// Count points.
		count := 0
		var walk func(n *MemNode)
		walk = func(n *MemNode) {
			if n == nil {
				return
			}
			count += len(n.Pts)
			walk(n.Left)
			walk(n.Right)
		}
		walk(root)
		return count == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortOrders(t *testing.T) {
	pts := randomPoints(100, 9)
	pts = append(pts, pts[:20]...) // whole-record duplicates
	slices.SortFunc(pts, record.CmpYDesc)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Y < pts[i].Y || pts[i-1].Y == pts[i].Y && pts[i].Less(pts[i-1]) {
			t.Fatal("CmpYDesc: not y-descending with point-order ties")
		}
	}
	slices.SortFunc(pts, record.CmpXDesc)
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X < pts[i].X || pts[i-1].X == pts[i].X && pts[i].Less(pts[i-1]) {
			t.Fatal("CmpXDesc: not x-descending with point-order ties")
		}
	}
	slices.SortFunc(pts, record.CmpXAsc)
	for i := 1; i < len(pts); i++ {
		if pts[i].Less(pts[i-1]) {
			t.Fatal("CmpXAsc: not ascending in point order")
		}
	}
	slices.Reverse(pts)
	if got := SortedAsc(pts); !slices.IsSortedFunc(got, record.CmpXYID) || !slices.IsSortedFunc(pts, func(p, q record.Point) int { return record.CmpXYID(q, p) }) {
		t.Fatal("SortedAsc: result unsorted or input mutated")
	}
	SortAsc(pts)
	for i := 1; i < len(pts); i++ {
		if pts[i].Less(pts[i-1]) {
			t.Fatal("SortAsc not ascending")
		}
	}
	if got := SortedAsc(pts); &got[0] != &pts[0] {
		t.Fatal("SortedAsc copied already-sorted input")
	}
}

// TestYDescOrderStable checks the radix y-order against a stable sort of
// the positions, across byte-boundary and sign-straddling y values.
func TestYDescOrderStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 300, 5000} {
		pts := make([]record.Point, n)
		for i := range pts {
			y := int64(rng.Intn(600) - 300)
			if i%3 == 0 {
				y <<= 40
			}
			pts[i] = record.Point{X: int64(i), Y: y}
		}
		order, tmp := make([]int32, n), make([]int32, n)
		yDescOrder(pts, order, tmp)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(pts[b].Y, pts[a].Y) })
		if !slices.Equal(order, want) {
			t.Fatalf("n=%d: radix y-order differs from a stable sort", n)
		}
	}
}

// TestMergerMatchesSort checks Merger against a full sort for 0 to 9 runs,
// empty runs among them and whole-record duplicates across runs, reusing
// one Merger throughout.
func TestMergerMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var m Merger
	for iter := 0; iter < 300; iter++ {
		cmpf := []func(p, q record.Point) int{record.CmpYDesc, record.CmpXDesc, record.CmpXAsc}[iter%3]
		runs := make([][]record.Point, rng.Intn(10))
		var all []record.Point
		for i := range runs {
			for j := rng.Intn(4) * rng.Intn(12); j > 0; j-- {
				p := record.Point{X: rng.Int63n(6), Y: rng.Int63n(6), ID: uint64(rng.Intn(3))}
				runs[i] = append(runs[i], p)
			}
			slices.SortFunc(runs[i], cmpf)
			all = append(all, runs[i]...)
		}
		slices.SortFunc(all, cmpf)
		if got := m.Merge(runs, cmpf); !slices.Equal(got, all) {
			t.Fatalf("iter %d: %d runs merged to %v, want %v", iter, len(runs), got, all)
		}
	}
}
