package pathcache

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Property suite for the runtime bound sentinels: every persisted kind,
// built at randomized sizes and page sizes with strict bounds armed, with
// and without a buffer pool, must answer a battery of randomized queries
// without ever breaching its declared theorem bound
// (reads ≤ DefaultMaxRatio·bound + DefaultSlack). The pooled variant proves
// a warm pool never inflates measured reads: pool hits surface as cache
// hits, which the sentinels do not count.
// This is the executable form of Theorems 3.2–3.5 and the window
// extension: if an index structure regresses to more I/O than its theorem
// allows, this suite names the kind, the op, and a seed that reproduces.
//
// Reproduce one failure with:
//
//	PC_BOUNDPROP_SEED=<seed> go test -run TestBoundPropertyAllKinds

const (
	propDomain  = 100_000 // coordinate space for generated workloads
	propQueries = 24      // serial queries per battery
)

// propSeeds returns the workload seeds: the fixed list, or the single seed
// the PC_BOUNDPROP_SEED environment variable requests.
func propSeeds(t *testing.T) []int64 {
	if s := os.Getenv("PC_BOUNDPROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PC_BOUNDPROP_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 7, 23}
}

// propVariant is one buffer-pool dimension of the battery.
type propVariant struct {
	name   string
	pooled bool
}

func propVariants() []propVariant {
	return []propVariant{
		{name: "sorted"},
		{name: "pooled", pooled: true},
	}
}

// strictProp builds the strict-mode options for one property run: the
// sentinels are armed at their defaults, and the buffer pool flips on for
// odd seeds so hit accounting rides along (hits never count as reads, so a
// pool can only help the bound). The pooled variant forces the pool on.
func strictProp(page int, rng *rand.Rand, v propVariant) *Options {
	opts := &Options{PageSize: page, StrictBounds: true}
	if rng.Intn(2) == 1 || v.pooled {
		opts.BufferPoolPages = 64
	}
	return opts
}

func propScheme(rng *rand.Rand) Scheme {
	return []Scheme{SchemeIKO, SchemeBasic, SchemeSegmented}[rng.Intn(3)]
}

// boundKind drives one persisted kind for one (n, page, seed) instance:
// build strict, answer a serial battery plus one small batch, close. Any
// returned error is a sentinel breach (or a genuine failure).
type boundKind struct {
	name string
	run  func(n, page int, seed int64, v propVariant) error
}

var boundKinds = []boundKind{
	{"twosided", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewTwoSidedIndex(uniformPoints(n, propDomain, seed), propScheme(rng), strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		for i := 0; i < propQueries; i++ {
			if _, _, err := ix.Query(rng.Int63n(propDomain), rng.Int63n(propDomain)); err != nil {
				return err
			}
		}
		qs := make([]TwoSidedQuery, 8)
		for i := range qs {
			qs[i] = TwoSidedQuery{A: rng.Int63n(propDomain), B: rng.Int63n(propDomain)}
		}
		_, _, err = ix.QueryBatch(qs, 4)
		return err
	}},
	{"threeside", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewThreeSidedIndex(uniformPoints(n, propDomain, seed), strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		for i := 0; i < propQueries; i++ {
			a1, a2 := rng.Int63n(propDomain), rng.Int63n(propDomain)
			if a1 > a2 {
				a1, a2 = a2, a1
			}
			if _, _, err := ix.QueryThreeSided(a1, a2, rng.Int63n(propDomain)); err != nil {
				return err
			}
		}
		qs := make([]ThreeSidedQuery, 8)
		for i := range qs {
			a1, a2 := rng.Int63n(propDomain), rng.Int63n(propDomain)
			if a1 > a2 {
				a1, a2 = a2, a1
			}
			qs[i] = ThreeSidedQuery{A1: a1, A2: a2, B: rng.Int63n(propDomain)}
		}
		_, _, err = ix.QueryThreeSidedBatch(qs, 4)
		return err
	}},
	{"segment", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewSegmentIndex(uniformIntervals(n, propDomain, propDomain/10, seed), true, strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		return propStabBattery(rng, ix.Stab, ix.StabBatch)
	}},
	{"interval", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewIntervalIndex(uniformIntervals(n, propDomain, propDomain/10, seed), true, strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		return propStabBattery(rng, ix.Stab, ix.StabBatch)
	}},
	{"stabbing", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewStabbingIndex(uniformIntervals(n, propDomain, propDomain/10, seed), propScheme(rng), strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		return propStabBattery(rng, ix.Stab, ix.StabBatch)
	}},
	{"window", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		ix, err := NewWindowIndex(uniformPoints(n, propDomain, seed), strictProp(page, rng, v))
		if err != nil {
			return err
		}
		defer ix.Close()
		for i := 0; i < propQueries; i++ {
			x1, x2 := rng.Int63n(propDomain), rng.Int63n(propDomain)
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			y1, y2 := rng.Int63n(propDomain), rng.Int63n(propDomain)
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			if _, _, err := ix.WindowQuery(x1, x2, y1, y2); err != nil {
				return err
			}
		}
		return nil
	}},
	// The dynamic write tier: the sentinels must hold not on a frozen
	// structure but across the whole lifecycle — every query runs against
	// whatever level shape the preceding updates left behind, including
	// mid-battery flush cascades and a forced full compaction. The memtable
	// threshold is drawn per run so the battery sees different level counts
	// (small thresholds → many levels, the worst case of the dynamization
	// tax the declared bound must still cover).
	{"lsm", func(n, page int, seed int64, v propVariant) error {
		rng := rand.New(rand.NewSource(seed))
		opts := strictProp(page, rng, v)
		opts.MemtableEntries = []int{16, 64, 256, 1024}[rng.Intn(4)]
		live := uniformPoints(n, propDomain, seed)
		ix, err := BuildDynamic("twosided", live, opts)
		if err != nil {
			return err
		}
		defer ix.Close()
		nextID := uint64(n + 1)
		for i := 0; i < propQueries; i++ {
			if _, _, err := ix.Query(rng.Int63n(propDomain), rng.Int63n(propDomain)); err != nil {
				return err
			}
			// An update burst between queries: enough inserts to cross
			// flush thresholds at the small settings, plus a delete so
			// tombstone pages enter the bound.
			for j := 0; j < 8; j++ {
				p := Point{X: rng.Int63n(propDomain), Y: rng.Int63n(propDomain), ID: nextID}
				nextID++
				if _, err := ix.Insert(p); err != nil {
					return err
				}
				live = append(live, p)
			}
			if len(live) > 0 && i%3 == 2 {
				k := rng.Intn(len(live))
				if _, err := ix.Delete(live[k]); err != nil {
					return err
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if _, _, err := ix.Has(live[rng.Intn(len(live))]); err != nil {
				return err
			}
			// Halfway through, rebuild everything into one level: the
			// queries after it run against the post-compaction shape.
			if i == propQueries/2 {
				if err := ix.Compact(); err != nil {
					return err
				}
			}
		}
		qs := make([]TwoSidedQuery, 8)
		for i := range qs {
			qs[i] = TwoSidedQuery{A: rng.Int63n(propDomain), B: rng.Int63n(propDomain)}
		}
		_, _, err = ix.QueryBatch(qs, 4)
		return err
	}},
}

// propStabBattery runs the shared stabbing workload: serial stabs then a small
// parallel batch, all through the strict sentinels.
func propStabBattery(rng *rand.Rand, stab func(int64) ([]Interval, IOProfile, error),
	batch func([]int64, int) ([][]Interval, BatchStats, error)) error {
	for i := 0; i < propQueries; i++ {
		if _, _, err := stab(rng.Int63n(propDomain)); err != nil {
			return err
		}
	}
	qs := make([]int64, 8)
	for i := range qs {
		qs[i] = rng.Int63n(propDomain)
	}
	_, _, err := batch(qs, 4)
	return err
}

func TestBoundPropertyAllKinds(t *testing.T) {
	sizes := []int{100, 1_000, 10_000}
	pages := []int{256, 512, 1024, 2048, 4096}
	seeds := propSeeds(t)
	for _, k := range boundKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			for _, v := range propVariants() {
				v := v
				t.Run(v.name, func(t *testing.T) {
					t.Parallel()
					for _, seed := range seeds {
						rng := rand.New(rand.NewSource(seed * 31))
						for _, n := range sizes {
							page := pages[rng.Intn(len(pages))]
							if err := k.run(n, page, seed, v); err != nil {
								t.Fatal(shrinkFailure(k, v, n, page, seed, err))
							}
						}
					}
					if !testing.Short() && v.pooled {
						// One large instance per kind, through the pool;
						// page ≥ 1024 keeps build time sane.
						if err := k.run(100_000, 1024, seeds[0], v); err != nil {
							t.Fatal(shrinkFailure(k, v, 100_000, 1024, seeds[0], err))
						}
					}
				})
			}
		})
	}
}

// shrinkFailure minimizes a failing instance by halving n while the
// failure persists (runs are deterministic in (n, page, seed)), then
// formats the smallest reproducer. The error text itself names the
// breaching op — BoundError carries the full trace.
func shrinkFailure(k boundKind, v propVariant, n, page int, seed int64, err error) string {
	for n/2 >= 50 && k.run(n/2, page, seed, v) != nil {
		n /= 2
	}
	if rerr := k.run(n, page, seed, v); rerr != nil {
		err = rerr
	}
	return fmt.Sprintf(
		"kind %s (%s) breaches its theorem bound at n=%d page=%d seed=%d\n"+
			"reproduce: PC_BOUNDPROP_SEED=%d go test -run 'TestBoundPropertyAllKinds/%s/%s'\nerror: %v",
		k.name, v.name, n, page, seed, seed, k.name, v.name, err)
}
