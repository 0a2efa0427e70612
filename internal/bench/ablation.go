package bench

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/dyn3side"
	"pathcache/internal/extpst"
	"pathcache/internal/obs"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// RunA1 is the chunk-length ablation for Theorem 3.2's design choice: the
// paper cuts the root-to-node path into log B-sized segments. Shorter
// chunks shrink each node's caches (less space) but add a chunk boundary —
// two direct block reads — per segment of every query; longer chunks do the
// reverse, with the full-path Basic scheme as the limit. The sweet spot
// should sit near log B.
func RunA1(cfg Config) (*Table, error) {
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	tab := newTable("n\tchunk\tquery reads (sel=1e-3)\tquery reads (sel=1e-1)\tpages",
		fmt.Sprintf("A1 (ablation): cache chunk length vs query cost and space (log B = %d)", log2(b)))
	ns := []int{50_000, 200_000}
	if cfg.Small {
		ns = []int{10_000}
	}
	logB := log2(b)
	for _, n := range ns {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		chunks := []int{1, 2, logB / 2, logB, 2 * logB, 4 * logB}
		for _, chunk := range chunks {
			if chunk < 1 {
				continue
			}
			s := disk.MustStore(cfg.pageSize())
			tr, err := extpst.BuildChunked(s, pts, extpst.Segmented, chunk)
			if err != nil {
				return nil, err
			}
			var reads [2]float64
			for i, sel := range []float64{0.001, 0.1} {
				qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, sel, cfg.seed()+29)
				r, _, err := measure2Sided(s, tr, qs)
				if err != nil {
					return nil, err
				}
				reads[i] = r
			}
			label := fmt.Sprintf("%d", chunk)
			if chunk == logB {
				label += " (=logB)"
			}
			tab.addf("%d\t%s\t%.1f\t%.1f\t%d", n, label, reads[0], reads[1], tr.TotalPages())
		}
	}
	return tab, nil
}

// RunA2 is the buffer-pool ablation: the paper's bounds are worst-case
// (cold) I/O; a pool converts repeated path pages into hits. The table
// shows store reads per query as the pool grows from nothing to
// index-sized.
func RunA2(cfg Config) (*Table, error) {
	tab := newTable("n\tpool pages\tstore reads/query\thit rate",
		"A2 (ablation): LRU buffer pool size vs store reads per query")
	n := 100_000
	if cfg.Small {
		n = 10_000
	}
	pts := workload.UniformPoints(n, 1<<30, cfg.seed())
	qs := workload.TwoSidedQueries(cfg.queries()*4, 1<<30, 0.001, cfg.seed()+31)
	for _, poolPages := range []int{0, 16, 128, 1024, 8192} {
		s := disk.MustStore(cfg.pageSize())
		var pager disk.Pager = s
		var pool *disk.BufferPool
		if poolPages > 0 {
			var err error
			pool, err = disk.NewBufferPool(s, poolPages)
			if err != nil {
				return nil, err
			}
			pager = pool
		}
		tr, err := extpst.Build(pager, pts, extpst.Segmented)
		if err != nil {
			return nil, err
		}
		if pool != nil {
			if err := pool.Flush(); err != nil {
				return nil, err
			}
			pool.ResetStats()
		}
		s.ResetStats()
		for _, q := range qs {
			if _, _, err := tr.Query(q.A, q.B); err != nil {
				return nil, err
			}
		}
		reads := float64(s.Stats().Reads) / float64(len(qs))
		hitRate := 0.0
		if pool != nil {
			ps := pool.Stats()
			if ps.Hits+ps.Misses > 0 {
				hitRate = float64(ps.Hits) / float64(ps.Hits+ps.Misses)
			}
		}
		tab.addf("%d\t%d\t%.1f\t%.0f%%", n, poolPages, reads, hitRate*100)
	}
	return tab, nil
}

// RunE9 measures the dynamic 3-sided structure (Theorem 5.2): amortized
// update cost against the theorem's O(log_B n·log² B) budget, and query
// cost against the optimal shape.
func RunE9(cfg Config) (*Table, error) {
	tab := newTable("n\tinsert IO/op\tdelete IO/op\tquery reads\tavg t\tpages\tThm 5.2 budget",
		"E9: dynamic 3-sided structure (Theorem 5.2)")
	ns := []int{10_000, 50_000, 150_000}
	if cfg.Small {
		ns = []int{2_000, 10_000}
	}
	for _, n := range ns {
		s := disk.MustStore(cfg.pageSize())
		tr, err := dyn3side.New(s)
		if err != nil {
			return nil, err
		}
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		s.ResetStats()
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				return nil, err
			}
		}
		insertIO := float64(s.Stats().Total()) / float64(n)

		qs := workload.ThreeSidedQueries(cfg.queries(), 1<<30, 0.1, 0.01, cfg.seed()+37)
		var reads, results int64
		for _, q := range qs {
			s.ResetStats()
			got, _, err := tr.Query(q.A1, q.A2, q.B)
			if err != nil {
				return nil, err
			}
			reads += s.Stats().Reads
			results += int64(len(got))
		}
		pages := s.NumPages()

		del := n / 2
		s.ResetStats()
		for _, p := range pts[:del] {
			if err := tr.Delete(p); err != nil {
				return nil, err
			}
		}
		deleteIO := float64(s.Stats().Total()) / float64(del)

		b := tr.B()
		budget := float64(obs.PathLen(n, b)) * float64(log2(b)) * float64(log2(b))
		tab.addf("%d\t%.1f\t%.1f\t%.1f\t%.0f\t%d\t%.0f",
			n, insertIO, deleteIO,
			float64(reads)/float64(len(qs)), float64(results)/float64(len(qs)),
			pages, budget)
	}
	return tab, nil
}
