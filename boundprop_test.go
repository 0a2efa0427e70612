package pathcache

import (
	"math/rand"
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

const (
	propDomain  = 100_000 // coordinate space for generated workloads
	propQueries = 24      // serial queries per battery
)

// strictProp builds the strict-mode options for one property run: the
// sentinels are armed at their defaults, and the buffer pool flips on for
// odd draws so hit accounting rides along (hits never count as reads, so a
// pool can only help the bound). The pooled variant forces the pool on.
func strictProp(page int, rng *rand.Rand, pooled bool) *Options {
	opts := &Options{PageSize: page, StrictBounds: true}
	if rng.Intn(2) == 1 || pooled {
		opts.BufferPoolPages = 64
	}
	return opts
}

// boundCase is one row of the battery: the kinds a run may build, one of
// them drawn per run when there are several. No kinds means the write
// tier's lifecycle run. Large rows add one 100k-record instance outside
// -short.
type boundCase struct {
	name  string
	kinds []propKind
	large bool
}

// boundCases are the served kinds, twosided and stabbing under a scheme
// drawn from the three flat ones, the write tier, and then twosided and
// stabbing under each scheme in turn. The large instance runs once per
// kind, on the first rows.
func boundCases() []boundCase {
	flat := func(name string) []propKind {
		return []propKind{kindOf(name, "iko"), kindOf(name, "basic"), kindOf(name, "segmented")}
	}
	cs := []boundCase{
		{"twosided", flat("twosided"), true},
		{"threeside", []propKind{kindOf("threeside", "")}, true},
		{"segment", []propKind{kindOf("segment", "cached=true")}, true},
		{"interval", []propKind{kindOf("interval", "cached=true")}, true},
		{"stabbing", flat("stabbing"), true},
		{"window", []propKind{kindOf("window", "")}, true},
		{"lsm", nil, true},
	}
	for _, k := range propKinds {
		if k.name == "twosided" || k.name == "stabbing" {
			cs = append(cs, boundCase{k.String(), []propKind{k}, false})
		}
	}
	return cs
}

// runBound drives one (n, page, seed) instance: build strict, answer a
// serial battery plus one small batch, close. Any returned error is a
// sentinel breach (or a genuine failure).
func runBound(c boundCase, n, page int, seed int64, pooled bool) error {
	rng := rand.New(rand.NewSource(seed))
	if c.kinds == nil {
		return runBoundLSM(rng, n, page, seed, pooled)
	}
	k := c.kinds[0]
	if len(c.kinds) > 1 {
		k = c.kinds[rng.Intn(len(c.kinds))]
	}
	d := propData{pts: uniformPoints(n, propDomain, seed)}
	if k.shape == ShapeStab {
		d = propData{ivs: uniformIntervals(n, propDomain, propDomain/10, seed)}
	}
	ix, err := k.build(d, strictProp(page, rng, pooled))
	if err != nil {
		return err
	}
	defer ix.Close()
	if _, _, err := ask(ix, k.shape, drawQueries(rng, propQueries, arity(k.shape), propDomain), 0); err != nil {
		return err
	}
	_, _, err = ask(ix, k.shape, drawQueries(rng, 8, arity(k.shape), propDomain), 4)
	return err
}

// runBoundLSM is the write tier's run: the sentinels must hold not on a
// frozen structure but across the whole lifecycle — every query runs
// against whatever level shape the preceding updates left behind,
// including mid-battery flush cascades and a forced full compaction. The
// memtable threshold is drawn per run so the battery sees different level
// counts (small thresholds → many levels, the worst case of the
// dynamization tax the declared bound must still cover).
func runBoundLSM(rng *rand.Rand, n, page int, seed int64, pooled bool) error {
	opts := strictProp(page, rng, pooled)
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
	_, _, err = ask(ix, ShapeTwoSided, drawQueries(rng, 8, 2, propDomain), 4)
	return err
}

func TestBoundPropertyAllKinds(t *testing.T) {
	sizes := []int{100, 1_000, 10_000}
	pages := []int{256, 512, 1024, 2048, 4096}
	seeds := propSeeds(t, 1, 7, 23)
	for _, c := range boundCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range []struct {
				name   string
				pooled bool
			}{{"sorted", false}, {"pooled", true}} {
				t.Run(v.name, func(t *testing.T) {
					t.Parallel()
					check := func(n, page int, seed int64) {
						run := func(n int) error { return runBound(c, n, page, seed, v.pooled) }
						if err := run(n); err != nil {
							t.Fatalf("%s (%s) breaches its theorem bound at page=%d: %s",
								c.name, v.name, page, shrink(t, seed, "n", n, 50, run, err))
						}
					}
					for _, seed := range seeds {
						rng := rand.New(rand.NewSource(seed * 31))
						for _, n := range sizes {
							check(n, pages[rng.Intn(len(pages))], seed)
						}
					}
					if !testing.Short() && v.pooled && c.large {
						// One large instance per kind, through the pool;
						// page ≥ 1024 keeps build time sane.
						check(100_000, 1024, seeds[0])
					}
				})
			}
		})
	}
}
