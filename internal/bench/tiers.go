package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"pathcache"
	"pathcache/internal/disk"
	"pathcache/internal/lsm"
	"pathcache/internal/obs"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// tierNs are the input sizes of L1 and S1: pointNs without its 400k step.
func (c Config) tierNs() []int {
	if c.Small {
		return []int{2_000, 10_000}
	}
	return []int{10_000, 100_000}
}

// RunL1 measures the dynamic write tier under a mixed read/write workload:
// seed n points into an LSM tree over the 2-sided base, churn it with n/4
// updates (70/30 insert/delete, flushing and compacting exactly as the
// public layer's thresholds would), then run the query battery against the
// level shape the churn left behind.
//
// The update columns are page transfers (reads + writes) per update beside
// an amortized estimate with three terms:
//   - one durable WAL tail rewrite (≈2 pages);
//   - per flush, the manifest flip and tombstone rewrite (≈6 pages / F
//     updates) and the geometric cascade that rewrites each record through
//     O(log₂(n/F)) level seals at ≈8/B pages per record (data chain, tree
//     and bloom);
//   - per compaction, a full rebuild that reads every data chain and seals
//     one level (≈9·n/B pages), once per tombstone cap of deletes (the
//     churn's 30% share over tr.TombCap()).
//
// At n = 100,000 the churn measures 1.01 WAL, 0.21 flush and 2.36
// compaction transfers per update; the rebuild term is the one that
// dominates. The query columns are reads per query against the
// dynamization bound at the tree's actual level count and tombstone
// footprint (obs.LSMBoundAt), the formula the StrictBounds sentinels
// enforce at runtime.
func RunL1(cfg Config) (*Table, error) {
	const (
		flushEvery   = 256
		deleteTenths = 3 // of the churn's updates; the rest insert
	)
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	tab := newTable("n\tupdates\tupdate I/O\tupdate bound\tupdate ratio\tlive n\tavg t\tquery reads\tquery bound\tquery ratio\tpages",
		"L1: LSM write tier — update I/O and post-churn 2-sided query reads vs the dynamization bound",
		fmt.Sprintf("    page=%dB  B=%d points/page  flush every %d updates", cfg.pageSize(), b, flushEvery))
	base, err := lsm.BaseFor(lsm.BaseTwoSided)
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.tierNs() {
		s := disk.MustStore(cfg.pageSize())
		tr, err := lsm.New(lsm.Config{Pager: s, Base: base, FlushEvery: flushEvery})
		if err != nil {
			return nil, err
		}
		maintain := func() error {
			if tr.NeedsFlush() {
				if _, err := tr.Flush(s); err != nil {
					return err
				}
			}
			if tr.NeedsCompact() {
				if _, err := tr.Compact(s); err != nil {
					return err
				}
			}
			return nil
		}
		live := workload.UniformPoints(n, 1<<30, cfg.seed())
		for _, p := range live {
			if err := tr.Insert(s, p); err != nil {
				return nil, err
			}
			if err := maintain(); err != nil {
				return nil, err
			}
		}

		// Churn, measured as total transfers per update so the amortized
		// flush and compaction costs land where they belong.
		rng := rand.New(rand.NewSource(cfg.seed() + 5))
		updates := n / 4
		nextID := uint64(n + 1)
		s.ResetStats()
		for i := 0; i < updates; i++ {
			if rng.Intn(10) < 10-deleteTenths || len(live) == 0 {
				p := record.Point{X: rng.Int63n(1 << 30), Y: rng.Int63n(1 << 30), ID: nextID}
				nextID++
				if err := tr.Insert(s, p); err != nil {
					return nil, err
				}
				live = append(live, p)
			} else {
				k := rng.Intn(len(live))
				if err := tr.Delete(s, live[k]); err != nil {
					return nil, err
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := maintain(); err != nil {
				return nil, err
			}
		}
		st := s.Stats()
		updIO := float64(st.Reads+st.Writes) / float64(updates)
		rebuild := 9 * float64(tr.Len()) / float64(b)
		updBound := 2 + 6/float64(flushEvery) +
			8*float64(log2((tr.Len()+flushEvery-1)/flushEvery))/float64(b) +
			deleteTenths/10.0*rebuild/float64(tr.TombCap())

		// Every level answers, plus the tombstone chain: the dynamization
		// tax the bound declares.
		qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, 0.01, cfg.seed()+1)
		var reads, results int64
		for _, q := range qs {
			s.ResetStats()
			out, _, err := tr.AppendQuery(s, nil, q.A, q.B)
			if err != nil {
				return nil, err
			}
			reads += s.Stats().Reads
			results += int64(len(out))
		}
		qn := float64(len(qs))
		avgT := float64(results) / qn
		qBound := obs.LSMBoundAt(tr.Levels(), tr.TombPages(), tr.Len(), b, 0) + avgT/float64(b)
		tab.addf("%d\t%d\t%.2f\t%.2f\t%.2f\t%d\t%.0f\t%.1f\t%.1f\t%.2f\t%d",
			n, updates, updIO, updBound, updIO/updBound,
			tr.Len(), avgT, float64(reads)/qn, qBound, float64(reads)/qn/qBound, s.NumPages())
	}
	return tab, nil
}

// s1Shards is the shard count of S1's sharded side. Quantile splitting can
// merge shards under extreme skew; the table records the count the build
// actually produced.
const s1Shards = 4

func toPublicPoints(pts []record.Point) []pathcache.Point {
	out := make([]pathcache.Point, len(pts))
	for i, p := range pts {
		out[i] = pathcache.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	return out
}

// RunS1 measures horizontal scale-out: the same 2-sided battery against one
// store and against a range-partitioned sharded store of the same records,
// over uniform and Zipf-skewed keys. A scatter-gathered query pays one
// search term per shard its predicate reaches, and quantile splitting must
// keep that pruning effective even when the keys are heavily skewed.
func RunS1(cfg Config) (*Table, error) {
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	tab := newTable("n\tkeys\tstore\tavg t\treads\tbound\tratio\tpages",
		"S1: sharding — one store vs a quantile-split shard directory, uniform and Zipf keys",
		fmt.Sprintf("    page=%dB  B=%d points/page  bound = shards reached × logB(n/shards) + t/B", cfg.pageSize(), b))
	dir, err := os.MkdirTemp("", "pcbench-shard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := &pathcache.Options{PageSize: cfg.pageSize()}
	// row averages one battery: reads and shards reached per query, as
	// returned by q.
	row := func(n int, keys, store string, shards int, pages int, q func(workload.TwoSidedQuery) (int, int64, int, error)) error {
		qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, 0.01, cfg.seed()+1)
		search := float64(obs.PathLen((n+shards-1)/shards, b))
		var reads, results, reached int64
		for _, qq := range qs {
			t, r, sh, err := q(qq)
			if err != nil {
				return fmt.Errorf("%s/%s n=%d: %w", store, keys, n, err)
			}
			reads, results, reached = reads+r, results+int64(t), reached+int64(sh)
		}
		qn := float64(len(qs))
		avgT := float64(results) / qn
		bound := float64(reached)/qn*search + avgT/float64(b)
		tab.addf("%d\t%s\t%s\t%.0f\t%.1f\t%.2f\t%.2f\t%d",
			n, keys, store, avgT, float64(reads)/qn, bound, float64(reads)/qn/bound, pages)
		return nil
	}
	for _, n := range cfg.tierNs() {
		for _, w := range []struct {
			name string
			pts  []record.Point
		}{
			{"uniform", workload.UniformPoints(n, 1<<30, cfg.seed())},
			// s = 1.2 concentrates the key mass hard at the low end: the
			// regime where equal-width splits would leave most shards empty
			// and quantile splits must keep them balanced.
			{"zipf", workload.ZipfPoints(n, 1<<30, 1.2, cfg.seed())},
		} {
			pts := toPublicPoints(w.pts)
			single, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, opts)
			if err != nil {
				return nil, err
			}
			err = row(n, w.name, "single", 1, single.Pages(), func(q workload.TwoSidedQuery) (int, int64, int, error) {
				out, prof, err := single.Query(q.A, q.B)
				return len(out), prof.Reads, 1, err
			})
			if cerr := single.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}

			sh, err := pathcache.BuildShardedPoints(filepath.Join(dir, fmt.Sprintf("%s-%d", w.name, n)), "twosided", pts,
				pathcache.ShardPlan{Shards: s1Shards, Scheme: pathcache.SchemeSegmented}, opts)
			if err != nil {
				return nil, err
			}
			err = row(n, w.name, fmt.Sprintf("sharded-%d", sh.NumShards()), sh.NumShards(), sh.Pages(), func(q workload.TwoSidedQuery) (int, int64, int, error) {
				out, profs, err := sh.QueryProfile(q.A, q.B)
				var reads int64
				for _, p := range profs {
					reads += p.Reads
				}
				return len(out), reads, len(profs), err
			})
			if cerr := sh.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}
