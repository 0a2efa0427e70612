package pathcache

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The canonical merge is a radix sort; these tests hold it to a plain
// comparison sort over the full (key, tail, ID) order.

func refPointOrder(a, b Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func refIntervalOrder(a, b Interval) int {
	if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// mergeKeyGens draws the routing keys of the property cases: the full
// signed range with both extremes, a narrow range full of ties, one
// shared key, and non-negative 30-bit keys like the served benchmark's.
var mergeKeyGens = []struct {
	name string
	key  func(rng *rand.Rand, i int) int64
}{
	{"full-range", func(rng *rand.Rand, i int) int64 {
		switch i % 97 {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -1
		}
		return int64(rng.Uint64())
	}},
	{"negative-ties", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(40) - 20 }},
	{"all-equal", func(*rand.Rand, int) int64 { return -7 }},
	{"30-bit", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(1 << 30) }},
}

var mergeSizes = []int{0, 1, 63, 64, 5000}

// splitParts cuts a into up to four consecutive parts, the way shards'
// answers arrive at the merge.
func splitParts[T any](rng *rand.Rand, a []T) [][]T {
	var parts [][]T
	for len(a) > 0 && len(parts) < 3 {
		k := rng.Intn(len(a) + 1)
		parts, a = append(parts, a[:k]), a[k:]
	}
	return append(parts, a)
}

func TestCanonicalPointsMatchesSortFunc(t *testing.T) {
	for _, g := range mergeKeyGens {
		for _, n := range mergeSizes {
			t.Run(fmt.Sprintf("%s/n=%d", g.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 1))
				pts := make([]Point, n)
				for i := range pts {
					pts[i] = Point{X: g.key(rng, i), Y: rng.Int63n(8) - 4, ID: uint64(rng.Intn(4))}
					if i%5 == 0 {
						pts[i].Y = math.MinInt64
					}
				}
				want := slices.Clone(pts)
				slices.SortFunc(want, refPointOrder)
				if got := mergePoints(splitParts(rng, pts)); !slices.Equal(got, want) {
					t.Fatalf("radix order differs from the comparison sort")
				}
			})
		}
	}
}

func TestCanonicalIntervalsMatchesSortFunc(t *testing.T) {
	for _, g := range mergeKeyGens {
		for _, n := range mergeSizes {
			t.Run(fmt.Sprintf("%s/n=%d", g.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 2))
				ivs := make([]Interval, n)
				for i := range ivs {
					ivs[i] = Interval{Lo: g.key(rng, i), Hi: rng.Int63n(8), ID: uint64(rng.Intn(4))}
					if i%7 == 0 {
						ivs[i].Hi = math.MaxInt64
					}
				}
				want := slices.Clone(ivs)
				slices.SortFunc(want, refIntervalOrder)
				if got := mergeIntervals(splitParts(rng, ivs)); !slices.Equal(got, want) {
					t.Fatalf("radix order differs from the comparison sort")
				}
			})
		}
	}
}

// TestCanonicalMergeIDOnly merges records equal in everything but ID,
// spread over parts in descending ID order: only the tie sort can order
// them.
func TestCanonicalMergeIDOnly(t *testing.T) {
	var parts [][]Point
	for s := 0; s < 4; s++ {
		var part []Point
		for i := 0; i < 20; i++ {
			part = append(part, Point{X: 5, Y: 5, ID: uint64(1000 - s*20 - i)})
		}
		parts = append(parts, part)
	}
	got := mergePoints(parts)
	want := slices.Concat(parts...)
	slices.SortFunc(want, refPointOrder)
	if !slices.Equal(got, want) {
		t.Fatalf("ID-only merge: got %v, want %v", got[:4], want[:4])
	}
	if mergePoints([][]Point{nil, {}}) != nil || mergeIntervals(nil) != nil {
		t.Fatalf("empty merge must be nil, like a single store's empty answer")
	}
}

// TestCanonicalMergeLSMIntervalShards stabs an lsm store over the stabbing
// base, sharded on the stored key X = -Lo: shard 0 holds the largest Lo,
// so shard-order concatenation would come out descending. The merged
// answers must still be the ascending (Lo, Hi, ID) order.
func TestCanonicalMergeLSMIntervalShards(t *testing.T) {
	ivs := shardedIntervals(600, 61)
	enc := make([]Point, len(ivs))
	for i, iv := range ivs {
		enc[i] = IntervalToDynamicPoint(iv)
	}
	s, err := BuildShardedPoints(t.TempDir(), "lsm", enc, ShardPlan{Shards: 4, Base: "stabbing"}, &Options{PageSize: 256, MemtableEntries: 32})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	if sp := s.Splits(); len(sp) < 2 || sp[0] >= sp[len(sp)-1] {
		t.Fatalf("splits %v: want ascending stored keys (descending Lo)", sp)
	}

	stabbed := func(q int64) []Interval {
		var want []Interval
		for _, iv := range ivs {
			if iv.Lo <= q && q <= iv.Hi {
				want = append(want, iv)
			}
		}
		slices.SortFunc(want, refIntervalOrder)
		return want
	}
	qs := []int64{0, 150, 700, 1000, 1400, 1999}
	for _, q := range qs {
		got, profs, err := s.StabProfile(q)
		if err != nil {
			t.Fatalf("Stab(%d): %v", q, err)
		}
		if want := stabbed(q); !slices.Equal(got, want) {
			t.Fatalf("Stab(%d): %d results out of canonical order (want %d)", q, len(got), len(want))
		}
		if q == 1000 && len(profs) < 2 {
			t.Fatalf("Stab(1000) consulted %d shards; the case needs a multi-shard merge", len(profs))
		}
	}
	got, _, err := s.StabBatch(qs, 2)
	if err != nil {
		t.Fatalf("StabBatch: %v", err)
	}
	for i, q := range qs {
		if want := stabbed(q); !slices.Equal(got[i], want) {
			t.Fatalf("StabBatch[%d] (q=%d) out of canonical order", i, q)
		}
	}
}

// BenchmarkCanonicalPoints merges a 2,000-point answer from 4 shards with
// 30-bit keys — the report-sharded workload's merge — into canonical order.
func BenchmarkCanonicalPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	parts := make([][]Point, 4)
	for s := range parts {
		for i := 0; i < 500; i++ {
			x := int64(s)<<28 + rng.Int63n(1<<28)
			parts[s] = append(parts[s], Point{X: x, Y: rng.Int63n(1 << 30), ID: rng.Uint64()})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = mergePoints(parts)
	}
}

var mergeSink []Point
