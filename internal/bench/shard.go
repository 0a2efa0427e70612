package bench

// The horizontal scale-out family: the same 2-sided battery against one
// single store and against a range-partitioned sharded store of the same
// records, over uniform and Zipf-skewed key distributions. The comparison
// is the point — a scatter-gathered query pays one search term per shard
// its predicate reaches, and quantile splitting must keep that predicate
// pruning effective even when the keys are heavily skewed.

import (
	"fmt"
	"os"
	"path/filepath"

	"pathcache"
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// shardReportShards is the shard count of the sharded side. Quantile
// splitting can merge shards under extreme skew; the report records the
// count the build actually produced.
const shardReportShards = 4

func toPublicPoints(pts []record.Point) []pathcache.Point {
	out := make([]pathcache.Point, len(pts))
	for i, p := range pts {
		out[i] = pathcache.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	return out
}

func shardReport(cfg Config) (Report, error) {
	rep := Report{Name: "shard", PageSize: cfg.pageSize(), Seed: cfg.seed(), Small: cfg.Small}
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	dir, err := os.MkdirTemp("", "pcbench-shard-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	opts := &pathcache.Options{PageSize: cfg.pageSize()}
	for _, n := range cfg.jsonPointNs() {
		for _, w := range []struct {
			name string
			pts  []record.Point
		}{
			{"uniform", workload.UniformPoints(n, 1<<30, cfg.seed())},
			// s = 1.2 concentrates the key mass hard at the low end — the
			// regime where naive equal-width splits would leave most shards
			// empty and quantile splits must keep them balanced.
			{"zipf", workload.ZipfPoints(n, 1<<30, 1.2, cfg.seed())},
		} {
			pts := toPublicPoints(w.pts)
			qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, 0.01, cfg.seed()+1)

			// Baseline: one store holding every record.
			single, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, opts)
			if err != nil {
				return rep, fmt.Errorf("shard/%s single n=%d: %w", w.name, n, err)
			}
			search := float64(logB(n, b))
			var samp querySampler
			for _, q := range qs {
				out, prof, err := single.Query(q.A, q.B)
				if err != nil {
					single.Close()
					return rep, fmt.Errorf("shard/%s single query n=%d: %w", w.name, n, err)
				}
				samp.observe(prof.Reads, len(out), search+float64(len(out))/float64(b))
			}
			m := samp.measurement("shard/single/"+w.name, n, b, single.Pages(), search)
			if err := single.Close(); err != nil {
				return rep, fmt.Errorf("shard/%s single close n=%d: %w", w.name, n, err)
			}
			rep.Measurements = append(rep.Measurements, m)

			// The sharded side: same records, quantile-split across shards,
			// each shard its own engine. A query's bound is one per-shard
			// search term for every shard its key suffix reaches.
			store := filepath.Join(dir, fmt.Sprintf("%s-%d", w.name, n))
			s, err := pathcache.BuildShardedPoints(store, "twosided", pts,
				pathcache.ShardPlan{Shards: shardReportShards, Scheme: pathcache.SchemeSegmented}, opts)
			if err != nil {
				return rep, fmt.Errorf("shard/%s sharded n=%d: %w", w.name, n, err)
			}
			nshards := s.NumShards()
			perShard := float64(logB((n+nshards-1)/nshards, b))
			var ssamp querySampler
			var searchSum float64
			for _, q := range qs {
				out, profs, err := s.QueryProfile(q.A, q.B)
				if err != nil {
					s.Close()
					return rep, fmt.Errorf("shard/%s sharded query n=%d: %w", w.name, n, err)
				}
				var reads int64
				for _, p := range profs {
					reads += p.Reads
				}
				qsearch := float64(len(profs)) * perShard
				searchSum += qsearch
				ssamp.observe(reads, len(out), qsearch+float64(len(out))/float64(b))
			}
			sm := ssamp.measurement(
				fmt.Sprintf("shard/sharded-%d/%s", nshards, w.name),
				n, b, s.Pages(), searchSum/float64(len(qs)))
			if err := s.Close(); err != nil {
				return rep, fmt.Errorf("shard/%s sharded close n=%d: %w", w.name, n, err)
			}
			rep.Measurements = append(rep.Measurements, sm)
		}
	}
	return rep, nil
}
