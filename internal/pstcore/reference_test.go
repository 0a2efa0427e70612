package pstcore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathcache/internal/record"
)

// referenceBuild is the per-node-sort construction Build replaced, kept as
// the differential oracle: every node sorts all its remaining points by
// (y desc, point order) to pick its top b, then re-sorts its block.
func referenceBuild(sorted []record.Point, b int) *MemNode {
	if len(sorted) == 0 {
		return nil
	}
	n := &MemNode{}
	if len(sorted) <= b {
		n.Pts = append([]record.Point(nil), sorted...)
		slices.SortFunc(n.Pts, record.CmpYDesc)
		n.MinY = n.Pts[len(n.Pts)-1].Y
		n.Split = sorted[len(sorted)/2].X
		n.SplitPt = sorted[len(sorted)/2]
		return n
	}
	idx := make([]int, len(sorted))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int { return record.CmpYDesc(sorted[i], sorted[j]) })
	taken := make(map[int]bool, b)
	for _, i := range idx[:b] {
		taken[i] = true
	}
	rest := make([]record.Point, 0, len(sorted)-b)
	for i, p := range sorted {
		if taken[i] {
			n.Pts = append(n.Pts, p)
		} else {
			rest = append(rest, p)
		}
	}
	slices.SortFunc(n.Pts, record.CmpYDesc)
	n.MinY = n.Pts[len(n.Pts)-1].Y
	mid := len(rest) / 2
	n.Split = rest[mid].X
	n.SplitPt = rest[mid]
	n.Left = referenceBuild(rest[:mid], b)
	n.Right = referenceBuild(rest[mid:], b)
	return n
}

// sameTree reports the first difference between two PSTs, or "".
func sameTree(got, want *MemNode, path string) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("%s: node present=%v, want %v", path, got != nil, want != nil)
	}
	if got == nil {
		return ""
	}
	if !slices.Equal(got.Pts, want.Pts) {
		return fmt.Sprintf("%s: Pts %v, want %v", path, got.Pts, want.Pts)
	}
	if got.Split != want.Split || got.SplitPt != want.SplitPt || got.MinY != want.MinY {
		return fmt.Sprintf("%s: split %d/%v minY %d, want %d/%v %d", path,
			got.Split, got.SplitPt, got.MinY, want.Split, want.SplitPt, want.MinY)
	}
	if d := sameTree(got.Left, want.Left, path+"L"); d != "" {
		return d
	}
	return sameTree(got.Right, want.Right, path+"R")
}

// TestBuildMatchesReference is the randomized differential of Build against
// referenceBuild: b from 2 to 64, coordinate domains from 8 (dense
// duplicates, including whole-record duplicates) up to the full int64
// range (negative coordinates exercise the radix key's sign flip).
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1505))
	domains := []int64{8, 64, 1000, 1 << 40, 0}
	for iter := 0; iter < 400; iter++ {
		b := 2 + rng.Intn(63)
		n := rng.Intn(8 * b * (1 + iter%8))
		dom := domains[iter%len(domains)]
		coord := func() int64 {
			if dom == 0 {
				return int64(rng.Uint64())
			}
			return rng.Int63n(dom) - dom/2
		}
		pts := make([]record.Point, n)
		for i := range pts {
			pts[i] = record.Point{X: coord(), Y: coord(), ID: uint64(rng.Intn(n/4 + 1))}
		}
		SortAsc(pts)
		in := slices.Clone(pts)
		got := Build(pts, b)
		if !slices.Equal(pts, in) {
			t.Fatalf("iter %d: Build mutated its input", iter)
		}
		if d := sameTree(got, referenceBuild(pts, b), "root"); d != "" {
			t.Fatalf("iter %d (n=%d b=%d domain=%d): %s", iter, n, b, dom, d)
		}
	}
}
