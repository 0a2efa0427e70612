package pathcache

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Store-configuration differential battery: every persisted static kind is
// built as a cold reference (no buffer pool) and once per configuration
// below over the same dataset, and every build is driven through an
// identical randomized query stream. Each configuration must return
// byte-identical results AND touch exactly the same number of pages per
// operation (Reads+CacheHits) as the reference: a build is a pure function
// of its input, and a pool only moves reads into hits. Any divergence — in
// results or in I/O — is a bug.
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

// layoutDiffConfig is one store configuration compared against the cold
// reference. The cold one rebuilds the reference, so it pins that answers
// and touched pages repeat exactly from build to build; the pooled one
// interposes a buffer pool, which moves the Reads/CacheHits split but must
// leave their sum unchanged.
type layoutDiffConfig struct {
	name string
	pool int
}

func layoutDiffConfigs() []layoutDiffConfig {
	return []layoutDiffConfig{
		{name: "cold"},
		{name: "pool", pool: 16},
	}
}

func layoutDiffOpts(cfg layoutDiffConfig) *Options {
	return &Options{PageSize: 512, BufferPoolPages: cfg.pool}
}

// layoutKindDriver builds one kind under a config and answers one query of
// the stream, returning a canonical result string plus the op's
// touched-page count (Reads+CacheHits).
type layoutKindDriver struct {
	name  string
	build func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error)
}

// layoutProbe runs queries against one built index. Every instance of a
// kind receives the same query parameters, so probe implementations must
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
		{name: "twosided", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewTwoSidedIndex(layoutDiffPoints(rng, n), SchemeSegmented, layoutDiffOpts(cfg))
			return pointProbe{kind: "twosided", two: ix}, err
		}},
		{name: "threeside", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewThreeSidedIndex(layoutDiffPoints(rng, n), layoutDiffOpts(cfg))
			return pointProbe{kind: "threeside", thr: ix}, err
		}},
		{name: "window", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewWindowIndex(layoutDiffPoints(rng, n), layoutDiffOpts(cfg))
			return pointProbe{kind: "window", win: ix}, err
		}},
		{name: "segment", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewSegmentIndex(layoutDiffIntervals(rng, n), true, layoutDiffOpts(cfg))
			return stabProbe{kind: "segment", seg: ix}, err
		}},
		{name: "interval", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewIntervalIndex(layoutDiffIntervals(rng, n), true, layoutDiffOpts(cfg))
			return stabProbe{kind: "interval", itv: ix}, err
		}},
		{name: "stabbing", build: func(rng *rand.Rand, n int, cfg layoutDiffConfig) (layoutProbe, error) {
			ix, err := NewStabbingIndex(layoutDiffIntervals(rng, n), SchemeSegmented, layoutDiffOpts(cfg))
			return stabProbe{kind: "stabbing", stb: ix}, err
		}},
	}
}

// runLayoutDifferential builds the kind as the cold reference and under cfg
// from the same seeded dataset and compares every query of the stream. The
// dataset and the query stream come from two independent rngs so a shrink
// over ops keeps the dataset fixed.
func runLayoutDifferential(driver layoutKindDriver, cfg layoutDiffConfig, ops int, seed int64) error {
	const n = 600
	build := func(cfg layoutDiffConfig) (layoutProbe, error) {
		// Same seed per build so every instance indexes identical data.
		return driver.build(rand.New(rand.NewSource(seed)), n, cfg)
	}
	ref, err := build(layoutDiffConfig{})
	if err != nil {
		return fmt.Errorf("build reference: %w", err)
	}
	defer ref.close()
	got, err := build(cfg)
	if err != nil {
		return fmt.Errorf("build %s: %w", cfg.name, err)
	}
	defer got.close()

	qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for op := 0; op < ops; op++ {
		q := [4]int64{qrng.Int63n(2400), qrng.Int63n(2400), qrng.Int63n(2400), qrng.Int63n(2400)}
		rRes, rIO, err := ref.query(q)
		if err != nil {
			return fmt.Errorf("op %d reference query %v: %w", op, q, err)
		}
		gRes, gIO, err := got.query(q)
		if err != nil {
			return fmt.Errorf("op %d %s query %v: %w", op, cfg.name, q, err)
		}
		if rRes != gRes {
			return fmt.Errorf("op %d query %v: results diverge\nreference: %s\n%s: %s", op, q, rRes, cfg.name, gRes)
		}
		if rIO != gIO {
			return fmt.Errorf("op %d query %v: touched-page counts diverge: reference %d, %s %d (Reads+CacheHits must not depend on the store configuration)", op, q, rIO, cfg.name, gIO)
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
		"%s/%s diverges from the cold reference at ops=%d seed=%d\n"+
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

// TestLayoutBatchDifferential drives the concurrent batch path over a
// shared buffer pool: the workers share the sharded pool, so -race
// exercises its latches, and every answer must match a cold build's serial
// query exactly.
func TestLayoutBatchDifferential(t *testing.T) {
	for _, seed := range layoutDiffSeeds(t) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			build := func(cfg layoutDiffConfig) *TwoSidedIndex {
				rng := rand.New(rand.NewSource(seed))
				ix, err := NewTwoSidedIndex(layoutDiffPoints(rng, 800), SchemeSegmented, layoutDiffOpts(cfg))
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			cold := build(layoutDiffConfig{})
			defer cold.Close()
			pooled := build(layoutDiffConfig{pool: 32})
			defer pooled.Close()

			qrng := rand.New(rand.NewSource(seed ^ 0xba7c4))
			qs := make([]TwoSidedQuery, 64)
			for i := range qs {
				qs[i] = TwoSidedQuery{A: qrng.Int63n(2400), B: qrng.Int63n(2400)}
			}
			got, _, err := pooled.QueryBatch(qs, 4)
			if err != nil {
				t.Fatalf("pooled batch: %v", err)
			}
			for i, q := range qs {
				want, _, err := cold.Query(q.A, q.B)
				if err != nil {
					t.Fatalf("cold query %d: %v", i, err)
				}
				if fmt.Sprint(want) != fmt.Sprint(got[i]) {
					t.Fatalf("batch query %d (%+v): results diverge\ncold:   %v\npooled: %v", i, q, want, got[i])
				}
			}
		})
	}
}
