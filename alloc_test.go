package pathcache

import (
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"pathcache/internal/race"
)

// allocCase is one shape's row of TestQueryAllocs: open builds a
// file-backed index under dir, closes and reopens it, and returns its i-th
// query, which reports the answer size.
type allocCase struct {
	name   string
	budget float64 // allocs per query
	// bytes, when set, caps the bytes allocated per query as a multiple
	// of the answer's own bytes.
	bytes float64
	open  func(t *testing.T, dir string) func(i int) (int, error)
}

// recordBytes is the in-memory size of a Point or an Interval: three
// 8-byte words.
const recordBytes = 24

// TestQueryAllocs caps the allocations of one serial query per shape on a
// reopened file-backed store with 4 KiB pages, at answer sizes of about
// 1 to 20 records. The walker's page buffers, the 2-sided scratch and every
// chain page come from pools, so what remains is the op recorder, its
// counted pager view, the walker's view slice and the growing answer.
// The test logs each count (Go 1.24, linux/amd64): twosided 3, threesided
// 12, window 15, segment 14, interval 15, stabbing 3, lsm 3, range 3.
// Twosided keeps its budget of 6; every other budget is one above its
// count.
//
// The lsm row's levels append into one pooled record buffer and its
// memtable is scanned as a slice, so it allocates what twosided does: 3,
// and 792 bytes for a 501-byte answer. Ranging over the memtable map and
// copying each level's answer out made 11 allocations and 2,859 bytes.
//
// The sharded row asks a reopened 4-shard twosided store for about 2,000
// records spread over all four shards. Each shard appends its answer to
// one pooled gather buffer, so past each shard's recorder and pin the
// query allocates only the answer the caller owns: 13 allocations, and
// 1.11 times the answer's bytes against a budget of 1.25 (the per-shard
// copies, merged slice and sort scratch of the earlier gather made 23
// allocations and 3.3 times).
func TestQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	const span = int64(1) << 30
	points := func(n int) []Point {
		rng := rand.New(rand.NewSource(1))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Int63n(span), Y: rng.Int63n(span), ID: uint64(i)}
		}
		return pts
	}
	// Intervals of mean length span/10,000 over 100,000 records: a stab
	// hits about 10.
	intervals := func() []Interval { return uniformIntervals(100_000, span, span/5_000, 1) }
	// stab rotates the stabbing point over the span.
	stab := func(i int) int64 { return span / 101 * int64(1+i%97) }
	d := span / 100
	cases := []allocCase{
		// Corners (span - d·f/3, span - d·3/f) cover about 20 of 200,000
		// points.
		{"twosided", 6, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewTwoSidedIndex(points(200_000), SchemeSegmented, o) },
				OpenTwoSidedIndex)
			return func(i int) (int, error) {
				f := int64(1 + i%9)
				pts, _, err := ix.Query(span-d*f/3, span-d*3/f)
				return len(pts), err
			}
		}},
		// A 1% x-slab above the top 2% of y: about 20 points.
		{"threesided", 13, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewThreeSidedIndex(points(100_000), o) },
				OpenThreeSidedIndex)
			return func(i int) (int, error) {
				a1 := d * int64(i%97)
				pts, _, err := ix.QueryThreeSided(a1, a1+d, span-2*d)
				return len(pts), err
			}
		}},
		// A 1% × 2% window: about 20 points.
		{"window", 16, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewWindowIndex(points(100_000), o) },
				OpenWindowIndex)
			return func(i int) (int, error) {
				x1, y1 := d*int64(i%97), d*int64((i*7)%97)
				pts, _, err := ix.WindowQuery(x1, x1+d, y1, y1+2*d)
				return len(pts), err
			}
		}},
		{"segment", 15, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewSegmentIndex(intervals(), true, o) },
				OpenSegmentIndex)
			return func(i int) (int, error) {
				ivs, _, err := ix.Stab(stab(i))
				return len(ivs), err
			}
		}},
		{"interval", 16, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewIntervalIndex(intervals(), true, o) },
				OpenIntervalIndex)
			return func(i int) (int, error) {
				ivs, _, err := ix.Stab(stab(i))
				return len(ivs), err
			}
		}},
		{"stabbing", 5, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) { return NewStabbingIndex(intervals(), SchemeSegmented, o) },
				OpenStabbingIndex)
			return func(i int) (int, error) {
				ivs, _, err := ix.Stab(stab(i))
				return len(ivs), err
			}
		}},
		// Corners (span·(10+i%20)/100, span - span/80) cover about 2,000 of
		// 200,000 points, spread over all four shards.
		{"sharded", 14, 1.25, func(t *testing.T, dir string) func(int) (int, error) {
			s, err := BuildShardedPoints(dir, "twosided", points(200_000), ShardPlan{Shards: 4, Scheme: SchemeSegmented}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = OpenSharded(dir, nil); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return func(i int) (int, error) {
				pts, _, err := s.Query(d*int64(10+i%20), span-span/80)
				return len(pts), err
			}
		}},
		// A twosided LSM store of 20,000 points over two levels, 158
		// tombstones and a replayed memtable of 500 inserts and 150
		// deletes. Corners (span - D·f/3, span - D·3/f) with D = span/32
		// cover about 20 records.
		{"lsm", 4, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix := reopen(t, dir, func(o *Options) (io.Closer, error) {
				o.MemtableEntries = 1024
				pts := points(21_100)
				ix, err := BuildDynamic("twosided", pts[:20_000], o)
				if err != nil {
					return nil, err
				}
				// Each flush with inserts seals into the first free slot:
				// slot 1 (merging slot 0), then slot 0 again.
				update := func(ins, del []Point, flush bool) error {
					for _, p := range ins {
						if _, err := ix.Insert(p); err != nil {
							return err
						}
					}
					for _, p := range del {
						if _, err := ix.Delete(p); err != nil {
							return err
						}
					}
					if flush {
						return ix.Flush()
					}
					return nil
				}
				if err := update(pts[20_000:20_300], nil, true); err != nil {
					return nil, err
				}
				if err := update(pts[20_300:20_600], pts[:158], true); err != nil {
					return nil, err
				}
				if err := update(pts[20_600:21_100], pts[1000:1150], false); err != nil {
					return nil, err
				}
				return ix, nil
			}, OpenDynamic)
			if len(ix.Levels()) != 2 || ix.TombCount() != 158 || ix.MemtableLen() != 650 {
				t.Fatalf("lsm setup: %d levels, %d tombstones, %d memtable entries; want 2, 158, 650",
					len(ix.Levels()), ix.TombCount(), ix.MemtableLen())
			}
			D := span / 32
			return func(i int) (int, error) {
				f := int64(1 + i%9)
				pts, _, err := ix.Query(span-D*f/3, span-D*3/f)
				return len(pts), err
			}
		}},
		// One value per key; RangeIndex has no reopen, so it is queried
		// as built.
		{"range", 4, 0, func(t *testing.T, dir string) func(int) (int, error) {
			ix, err := NewRangeIndex(&Options{Path: filepath.Join(dir, "range.pc")})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ix.Close() })
			keys := points(100_000)
			for _, p := range keys {
				if err := ix.Insert(p.X, p.ID); err != nil {
					t.Fatal(err)
				}
			}
			return func(i int) (int, error) {
				vals, err := ix.Search(keys[(i*7919)%len(keys)].X)
				return len(vals), err
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			query := c.open(t, t.TempDir())
			i, results := 0, 0
			run := func() {
				n, err := query(i)
				if err != nil {
					t.Fatal(err)
				}
				i++
				results += n
			}
			run()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before, i0, results0 := ms.TotalAlloc, i, results
			got := testing.AllocsPerRun(500, run)
			runtime.ReadMemStats(&ms)
			queries := float64(i - i0)
			bytes := float64(ms.TotalAlloc-before) / queries
			answer := float64(recordBytes*(results-results0)) / queries
			t.Logf("%s: %.1f allocs and %.0f bytes per query, %.1f results (%.0f bytes) per query",
				c.name, got, bytes, float64(results)/float64(i), answer)
			if got > c.budget {
				t.Fatalf("%s: %.1f allocs per query, want <= %.0f", c.name, got, c.budget)
			}
			if c.bytes > 0 && bytes > c.bytes*answer {
				t.Fatalf("%s: %.0f bytes per query for a %.0f-byte answer, want <= %.2f×", c.name, bytes, answer, c.bytes)
			}
		})
	}
}

// reopen builds an index with build into a file under dir, closes it, and
// reopens it with open; the reopened index closes at cleanup.
func reopen[I io.Closer](t *testing.T, dir string, build func(*Options) (io.Closer, error), open func(string) (I, error)) I {
	t.Helper()
	path := filepath.Join(dir, "index.pc")
	built, err := build(&Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// buildAllocBudget is what a 100,000-point Segmented build allocated with
// the per-node-sort construction: 133,615,640 bytes at most over three runs
// (Go 1.24, linux/amd64). The sort-once construction must stay at or below
// it.
const buildAllocBudget = 133_615_640

// TestBuildAllocs caps the bytes a 100,000-point Segmented build allocates
// on a file-backed store with 4 KiB pages, from the constructor call until
// it returns.
func TestBuildAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const n, span = 100_000, int64(1) << 30
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Int63n(span), Y: rng.Int63n(span), ID: uint64(i)}
	}
	dir := t.TempDir()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{Path: filepath.Join(dir, "build.pc")})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got > buildAllocBudget {
		t.Fatalf("Segmented build of %d points allocated %d bytes, budget %d", n, got, buildAllocBudget)
	}
	t.Logf("Segmented build of %d points: %d bytes allocated (budget %d)", n, got, buildAllocBudget)
}
