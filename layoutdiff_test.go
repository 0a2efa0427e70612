package pathcache

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Cross-layout differential battery: every persisted static kind is built
// twice over the same dataset — once per page layout — and driven through an
// identical randomized query stream. Both builds must return byte-identical
// results AND touch exactly the same number of pages per operation
// (Reads+CacheHits; without a pool CacheHits is zero, and prefetch only
// shifts reads into hits, never changes the sum). The layout is a physical
// in-page encoding, so any divergence — in results or in I/O — is a bug.
//
// Failures shrink by halving the op count while the divergence persists
// (runs are deterministic in (ops, seed)) and print a one-line reproducer:
//
//	PC_LAYOUTDIFF_SEED=<seed> go test -run TestLayoutDifferential

const layoutDiffOps = 200

// layoutDiffSeeds returns the stream seeds: the fixed list, or the single
// seed PC_LAYOUTDIFF_SEED requests.
func layoutDiffSeeds(t *testing.T) []int64 {
	if s := os.Getenv("PC_LAYOUTDIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PC_LAYOUTDIFF_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{201, 202}
}

// layoutDiffConfig is one store configuration the battery runs both layouts
// under. The prefetching config also exercises the async pipeline: the
// Reads+CacheHits sum must stay identical even though the split moves.
type layoutDiffConfig struct {
	name     string
	pool     int
	prefetch int
}

func layoutDiffConfigs() []layoutDiffConfig {
	return []layoutDiffConfig{
		{name: "cold", pool: 0, prefetch: 0},
		{name: "pool", pool: 16, prefetch: 0},
		{name: "pool+prefetch", pool: 16, prefetch: 2},
	}
}

func layoutDiffOpts(layout Layout, cfg layoutDiffConfig) *Options {
	return &Options{
		PageSize:        512,
		BufferPoolPages: cfg.pool,
		Layout:          layout,
		PrefetchWorkers: cfg.prefetch,
	}
}

// layoutKindDriver builds one kind under a layout/config and answers one
// query of the stream, returning a canonical result string plus the op's
// touched-page count (Reads+CacheHits).
type layoutKindDriver struct {
	name  string
	build func(rng *rand.Rand, n int, layout Layout, cfg layoutDiffConfig) (layoutProbe, error)
}

// layoutProbe runs queries against one built index. Both layout instances of
// a kind receive the same query parameters, so probe implementations must
// derive nothing from per-instance randomness.
type layoutProbe interface {
	query(q [4]int64) (string, int64, error)
	close() error
}

func profSum(p IOProfile) int64 { return p.Reads + p.CacheHits }

// pointProbe adapts the three point kinds.
type pointProbe struct {
	kind string
	two  *TwoSidedIndex
	thr  *ThreeSidedIndex
	win  *WindowIndex
}

func (p pointProbe) query(q [4]int64) (string, int64, error) {
	switch p.kind {
	case "twosided":
		pts, prof, err := p.two.QueryProfile(q[0], q[1])
		return fmt.Sprint(pts), profSum(prof), err
	case "threeside":
		a1, a2 := minmax(q[0], q[1])
		pts, prof, err := p.thr.QueryThreeSided(a1, a2, q[2])
		return fmt.Sprint(pts), profSum(prof), err
	default:
		x1, x2 := minmax(q[0], q[1])
		y1, y2 := minmax(q[2], q[3])
		pts, prof, err := p.win.WindowQuery(x1, x2, y1, y2)
		return fmt.Sprint(pts), profSum(prof), err
	}
}

func (p pointProbe) close() error {
	switch p.kind {
	case "twosided":
		return p.two.Close()
	case "threeside":
		return p.thr.Close()
	default:
		return p.win.Close()
	}
}

// stabProbe adapts the three interval kinds.
type stabProbe struct {
	kind string
	seg  *SegmentIndex
	itv  *IntervalIndex
	stb  *StabbingIndex
}

func (p stabProbe) query(q [4]int64) (string, int64, error) {
	var ivs []Interval
	var prof IOProfile
	var err error
	switch p.kind {
	case "segment":
		ivs, prof, err = p.seg.Stab(q[0])
	case "interval":
		ivs, prof, err = p.itv.Stab(q[0])
	default:
		ivs, prof, err = p.stb.Stab(q[0])
	}
	return fmt.Sprint(ivs), profSum(prof), err
}

func (p stabProbe) close() error {
	switch p.kind {
	case "segment":
		return p.seg.Close()
	case "interval":
		return p.itv.Close()
	default:
		return p.stb.Close()
	}
}

func minmax(a, b int64) (int64, int64) {
	if a > b {
		return b, a
	}
	return a, b
}

func layoutDiffPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Int63n(2000), Y: rng.Int63n(2000), ID: uint64(i + 1)}
	}
	return pts
}

func layoutDiffIntervals(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := rng.Int63n(2000)
		ivs[i] = Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(400), ID: uint64(i + 1)}
	}
	return ivs
}

func layoutDiffDrivers() []layoutKindDriver {
	return []layoutKindDriver{
		{name: "twosided", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewTwoSidedIndex(layoutDiffPoints(rng, n), SchemeSegmented, layoutDiffOpts(l, cfg))
			return pointProbe{kind: "twosided", two: ix}, err
		}},
		{name: "threeside", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewThreeSidedIndex(layoutDiffPoints(rng, n), layoutDiffOpts(l, cfg))
			return pointProbe{kind: "threeside", thr: ix}, err
		}},
		{name: "window", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewWindowIndex(layoutDiffPoints(rng, n), layoutDiffOpts(l, cfg))
			return pointProbe{kind: "window", win: ix}, err
		}},
		{name: "segment", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewSegmentIndex(layoutDiffIntervals(rng, n), true, layoutDiffOpts(l, cfg))
			return stabProbe{kind: "segment", seg: ix}, err
		}},
		{name: "interval", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewIntervalIndex(layoutDiffIntervals(rng, n), true, layoutDiffOpts(l, cfg))
			return stabProbe{kind: "interval", itv: ix}, err
		}},
		{name: "stabbing", build: func(rng *rand.Rand, n int, l Layout, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewStabbingIndex(layoutDiffIntervals(rng, n), SchemeSegmented, layoutDiffOpts(l, cfg))
			return stabProbe{kind: "stabbing", stb: ix}, err
		}},
	}
}

// runLayoutDifferential builds the kind under both layouts from the same
// seeded dataset and compares every query of the stream. The dataset and the
// query stream come from two independent rngs so a shrink over ops keeps the
// dataset fixed.
func runLayoutDifferential(driver layoutKindDriver, cfg layoutDiffConfig, ops int, seed int64) error {
	const n = 600
	build := func(l Layout) (layoutProbe, error) {
		// Same seed per layout so both instances index identical data.
		return driver.build(rand.New(rand.NewSource(seed)), n, l, cfg)
	}
	sorted, err := build(LayoutSorted)
	if err != nil {
		return fmt.Errorf("build sorted: %w", err)
	}
	defer sorted.close()
	eytz, err := build(LayoutEytzinger)
	if err != nil {
		return fmt.Errorf("build eytzinger: %w", err)
	}
	defer eytz.close()

	qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for op := 0; op < ops; op++ {
		q := [4]int64{qrng.Int63n(2400), qrng.Int63n(2400), qrng.Int63n(2400), qrng.Int63n(2400)}
		sRes, sIO, err := sorted.query(q)
		if err != nil {
			return fmt.Errorf("op %d sorted query %v: %w", op, q, err)
		}
		eRes, eIO, err := eytz.query(q)
		if err != nil {
			return fmt.Errorf("op %d eytzinger query %v: %w", op, q, err)
		}
		if sRes != eRes {
			return fmt.Errorf("op %d query %v: results diverge across layouts\nsorted:    %s\neytzinger: %s", op, q, sRes, eRes)
		}
		if sIO != eIO {
			return fmt.Errorf("op %d query %v: touched-page counts diverge: sorted %d, eytzinger %d (Reads+CacheHits must be layout-invariant)", op, q, sIO, eIO)
		}
	}
	return nil
}

// shrinkLayoutDiff minimizes a failing stream by halving the op count while
// the divergence persists, then formats the smallest reproducer.
func shrinkLayoutDiff(t *testing.T, driver layoutKindDriver, cfg layoutDiffConfig, ops int, seed int64, err error) string {
	for ops/2 >= 5 && runLayoutDifferential(driver, cfg, ops/2, seed) != nil {
		ops /= 2
	}
	if rerr := runLayoutDifferential(driver, cfg, ops, seed); rerr != nil {
		err = rerr
	}
	return fmt.Sprintf(
		"%s/%s diverges across layouts at ops=%d seed=%d\n"+
			"reproduce: PC_LAYOUTDIFF_SEED=%d go test -run 'TestLayoutDifferential/%s/%s'\nerror: %v",
		driver.name, cfg.name, ops, seed, seed, driver.name, cfg.name, err)
}

func TestLayoutDifferential(t *testing.T) {
	for _, driver := range layoutDiffDrivers() {
		driver := driver
		t.Run(driver.name, func(t *testing.T) {
			for _, cfg := range layoutDiffConfigs() {
				cfg := cfg
				t.Run(cfg.name, func(t *testing.T) {
					for _, seed := range layoutDiffSeeds(t) {
						seed := seed
						t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
							t.Parallel()
							if err := runLayoutDifferential(driver, cfg, layoutDiffOps, seed); err != nil {
								t.Fatal(shrinkLayoutDiff(t, driver, cfg, layoutDiffOps, seed, err))
							}
						})
					}
				})
			}
		})
	}
}

// TestLayoutBatchDifferential drives the concurrent batch path under both
// layouts: worker goroutines share the sharded buffer pool and the
// prefetcher, so -race exercises the full async pipeline, and the merged
// results must agree exactly.
func TestLayoutBatchDifferential(t *testing.T) {
	for _, seed := range layoutDiffSeeds(t) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			cfg := layoutDiffConfig{pool: 32, prefetch: 2}
			build := func(l Layout) *TwoSidedIndex {
				rng := rand.New(rand.NewSource(seed))
				ix, err := NewTwoSidedIndex(layoutDiffPoints(rng, 800), SchemeSegmented, layoutDiffOpts(l, cfg))
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			sorted := build(LayoutSorted)
			defer sorted.Close()
			eytz := build(LayoutEytzinger)
			defer eytz.Close()

			qrng := rand.New(rand.NewSource(seed ^ 0xba7c4))
			qs := make([]TwoSidedQuery, 64)
			for i := range qs {
				qs[i] = TwoSidedQuery{A: qrng.Int63n(2400), B: qrng.Int63n(2400)}
			}
			sRes, _, err := sorted.QueryBatch(qs, 4)
			if err != nil {
				t.Fatalf("sorted batch: %v", err)
			}
			eRes, _, err := eytz.QueryBatch(qs, 4)
			if err != nil {
				t.Fatalf("eytzinger batch: %v", err)
			}
			for i := range qs {
				if fmt.Sprint(sRes[i]) != fmt.Sprint(eRes[i]) {
					t.Fatalf("batch query %d (%+v): results diverge across layouts\nsorted:    %v\neytzinger: %v",
						i, qs[i], sRes[i], eRes[i])
				}
			}
		})
	}
}
