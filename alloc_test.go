package pathcache

import (
	"math/rand"
	"path/filepath"
	"testing"

	"pathcache/internal/race"
)

// TestTwoSidedQueryAllocs caps the allocations of one 2-sided query on a
// reopened file-backed store of 200,000 uniform points, at the served
// benchmark's answer size of about 20 points. The walker's views, the
// descent path, the result accumulator and every page buffer come from
// pools, so what remains is the op record, its counted pager view and the
// answer itself.
func TestTwoSidedQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	const n, span = 200_000, int64(1) << 30
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Int63n(span), Y: rng.Int63n(span), ID: uint64(i)}
	}
	path := filepath.Join(t.TempDir(), "twosided.pc")
	built, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenTwoSidedIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Corners (span - d·f/3, span - d·3/f) cover about 20 of the points.
	d := span / 100
	i := 0
	query := func() {
		f := int64(1 + i%9)
		i++
		if _, _, err := ix.Query(span-d*f/3, span-d*3/f); err != nil {
			t.Fatal(err)
		}
	}
	query()
	if got := testing.AllocsPerRun(500, query); got > 6 {
		t.Fatalf("TwoSidedIndex.Query: %.1f allocs per query, want <= 6", got)
	}
}
