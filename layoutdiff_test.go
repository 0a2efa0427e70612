package pathcache

import (
	"fmt"
	"math/rand"
	"slices"
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
// results or in I/O — is a bug. Failures shrink by halving the op count
// (runs are deterministic in (ops, seed)).

// layoutCfg is one store configuration compared against the cold
// reference. The cold one rebuilds the reference, so it pins that answers
// and touched pages repeat exactly from build to build; the pooled one
// interposes a buffer pool, which moves the Reads/CacheHits split but must
// leave their sum unchanged.
type layoutCfg struct {
	name    string
	pool    int
	n       int   // records in the dataset
	draws   int   // coordinates drawn per query
	salt    int64 // xored into the seed for the query stream
	workers int   // > 0: answer the stream as one batch over this many workers
}

var layoutCfgs = []layoutCfg{
	{name: "cold", n: 600, draws: 4, salt: 0x5eed},
	{name: "pool", pool: 16, n: 600, draws: 4, salt: 0x5eed},
}

// layoutBatch drives the concurrent batch path over a shared buffer pool:
// the workers share the sharded pool, so -race exercises its latches, and
// every answer must match the cold reference's serial query exactly.
var layoutBatch = layoutCfg{name: "batch", pool: 32, n: 800, draws: 2, salt: 0xba7c4, workers: 4}

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

// runLayoutDifferential builds k as the cold reference and under cfg from
// the same seeded dataset and compares every query of the stream. The
// dataset and the query stream come from two independent rngs so a shrink
// over ops keeps the dataset fixed.
func runLayoutDifferential(k propKind, cfg layoutCfg, ops int, seed int64) error {
	build := func(pool int) (Index, error) {
		// Same seed per build so every instance indexes identical data.
		rng := rand.New(rand.NewSource(seed))
		d := propData{pts: layoutDiffPoints(rng, cfg.n)}
		if k.shape == ShapeStab {
			d = propData{ivs: layoutDiffIntervals(rng, cfg.n)}
		}
		return k.build(d, &Options{PageSize: 512, BufferPoolPages: pool})
	}
	ref, err := build(0)
	if err != nil {
		return fmt.Errorf("build reference: %w", err)
	}
	defer ref.Close()
	got, err := build(cfg.pool)
	if err != nil {
		return fmt.Errorf("build %s: %w", cfg.name, err)
	}
	defer got.Close()

	qs := drawQueries(rand.New(rand.NewSource(seed^cfg.salt)), ops, cfg.draws, 2400)
	want, wantIO, err := ask(ref, k.shape, qs, 0)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	have, haveIO, err := ask(got, k.shape, qs, cfg.workers)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.name, err)
	}
	for op, q := range qs {
		if !slices.Equal(want[op], have[op]) {
			return fmt.Errorf("op %d query %v: results diverge\nreference: %v\n%s: %v", op, q, want[op], cfg.name, have[op])
		}
		if cfg.workers > 0 {
			continue // a batch reports no per-query profile
		}
		if r, g := wantIO[op].Reads+wantIO[op].CacheHits, haveIO[op].Reads+haveIO[op].CacheHits; r != g {
			return fmt.Errorf("op %d query %v: touched-page counts diverge: reference %d, %s %d (Reads+CacheHits must not depend on the store configuration)", op, q, r, cfg.name, g)
		}
	}
	return nil
}

func layoutCheck(t *testing.T, k propKind, cfg layoutCfg, ops int, seed int64) {
	t.Parallel()
	run := func(ops int) error { return runLayoutDifferential(k, cfg, ops, seed) }
	if err := run(ops); err != nil {
		t.Fatalf("%s/%s diverges from the cold reference: %s", k, cfg.name, shrink(t, seed, "ops", ops, 5, run, err))
	}
}

// TestLayoutDifferential runs every served kind, and twosided and stabbing
// under every other scheme, in each configuration.
func TestLayoutDifferential(t *testing.T) {
	for _, k := range propKinds {
		name := k.name
		if !k.served() {
			if k.name != "twosided" && k.name != "stabbing" {
				continue
			}
			name = k.String()
		}
		t.Run(name, func(t *testing.T) {
			for _, cfg := range layoutCfgs {
				t.Run(cfg.name, func(t *testing.T) {
					for _, seed := range propSeeds(t, 201, 202) {
						t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { layoutCheck(t, k, cfg, 200, seed) })
					}
				})
			}
		})
	}
}

func TestLayoutBatchDifferential(t *testing.T) {
	for _, seed := range propSeeds(t, 201, 202) {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			layoutCheck(t, kindOf("twosided", "segmented"), layoutBatch, 64, seed)
		})
	}
}
