package record

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// SortXYID must give the one sequence a comparison sort by CmpXYID gives:
// over the full signed range, over a narrow domain full of X ties and
// whole-record duplicates, and with its scratch supplied or not.
func TestSortXYIDMatchesCmpXYID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []func() int64{
		func() int64 { return int64(rng.Uint64()) },
		func() int64 { return rng.Int63n(8) - 4 },
		func() int64 { return []int64{math.MinInt64, -1, 0, math.MaxInt64}[rng.Intn(4)] },
	}
	for _, n := range []int{0, 1, 2, 63, 64, 1000} {
		for k, key := range keys {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: key(), Y: key(), ID: uint64(rng.Intn(4))}
			}
			want := slices.Clone(pts)
			slices.SortFunc(want, CmpXYID)
			for _, scratch := range [][]Point{nil, make([]Point, n+3)} {
				got := slices.Clone(pts)
				SortXYID(got, scratch)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d keys=%d scratch=%v: SortXYID differs from slices.SortFunc(CmpXYID)", n, k, scratch != nil)
				}
			}
		}
	}
}
