package pathcache_test

import (
	"fmt"

	"pathcache"
)

// Build a static 2-sided index and query the top-right quadrant.
func ExampleNewTwoSidedIndex() {
	pts := []pathcache.Point{
		{X: 10, Y: 10, ID: 1},
		{X: 50, Y: 80, ID: 2},
		{X: 90, Y: 40, ID: 3},
		{X: 70, Y: 95, ID: 4},
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, nil)
	if err != nil {
		panic(err)
	}
	res, _, err := ix.Query(40, 50) // x >= 40 and y >= 50
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res), "points match")
	// Output: 2 points match
}

// Dynamic interval management: insert validity intervals, delete one, and
// ask who is valid at a time point.
func ExampleDynamicStabbingIndex() {
	idx, err := pathcache.NewDynamicStabbingIndex(nil)
	if err != nil {
		panic(err)
	}
	contracts := []pathcache.Interval{
		{Lo: 0, Hi: 100, ID: 1},
		{Lo: 50, Hi: 200, ID: 2},
		{Lo: 120, Hi: 300, ID: 3},
	}
	for _, c := range contracts {
		if err := idx.Insert(c); err != nil {
			panic(err)
		}
	}
	if err := idx.Delete(contracts[1]); err != nil {
		panic(err)
	}
	hits, err := idx.Stab(75)
	if err != nil {
		panic(err)
	}
	for _, h := range hits {
		fmt.Println("valid at 75: contract", h.ID)
	}
	// Output: valid at 75: contract 1
}

// 3-sided queries answer "instances of a class subtree with attribute above
// a threshold" after a preorder encoding of the hierarchy.
func ExampleNewThreeSidedIndex() {
	// Class ids 0..4; the subtree of class 1 occupies [1, 3].
	instances := []pathcache.Point{
		{X: 0, Y: 10, ID: 1},
		{X: 1, Y: 70, ID: 2},
		{X: 2, Y: 90, ID: 3},
		{X: 3, Y: 30, ID: 4},
		{X: 4, Y: 99, ID: 5},
	}
	ix, err := pathcache.NewThreeSidedIndex(instances, nil)
	if err != nil {
		panic(err)
	}
	res, _, err := ix.QueryThreeSided(1, 3, 50) // class in [1,3], attribute >= 50
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res), "instances")
	// Output: 2 instances
}

// The I/O profile shows the paper's accounting: useful page reads come back
// full of results, wasteful ones do not.
func ExampleTwoSidedIndex_QueryProfile() {
	pts := make([]pathcache.Point, 2000)
	for i := range pts {
		pts[i] = pathcache.Point{X: int64(i), Y: int64(i * 7 % 2000), ID: uint64(i + 1)}
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeTwoLevel, nil)
	if err != nil {
		panic(err)
	}
	res, prof, err := ix.QueryProfile(1000, 1000)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res) == prof.Results)
	// Output: true
}

// General 4-sided window queries via the range-tree extension.
func ExampleNewWindowIndex() {
	pts := []pathcache.Point{
		{X: 10, Y: 10, ID: 1},
		{X: 50, Y: 80, ID: 2},
		{X: 90, Y: 40, ID: 3},
		{X: 70, Y: 95, ID: 4},
	}
	ix, err := pathcache.NewWindowIndex(pts, nil)
	if err != nil {
		panic(err)
	}
	res, _, err := ix.WindowQuery(40, 95, 30, 90) // 40<=x<=95, 30<=y<=90
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res), "points in the window")
	// Output: 2 points in the window
}
