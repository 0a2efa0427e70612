// Package bench implements the experiment harness of EXPERIMENTS.md: one
// runner per experiment (E1–E10), figure reproduction (F2, F4), ablation
// (A1–A3) and the LSM and sharding tiers (L1, S1), each returning the table
// that stands in for the evaluation section the extended abstract never
// had. Runners measure page transfers on the simulated disk and put them
// next to the paper's predicted terms. The same tables are printed as text
// and written to BENCH_io.json (table.go).
package bench

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/dynpst"
	"pathcache/internal/ext3side"
	"pathcache/internal/extint"
	"pathcache/internal/extpst"
	"pathcache/internal/extseg"
	"pathcache/internal/logmethod"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// PageSize in bytes (default 4096).
	PageSize int
	// Seed for all workloads (default 1).
	Seed int64
	// Small switches to reduced sizes so the whole suite runs in seconds
	// (used by tests; the default sizes match EXPERIMENTS.md).
	Small bool
}

func (c Config) pageSize() int {
	if c.PageSize == 0 {
		return 4096
	}
	return c.PageSize
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) pointNs() []int {
	if c.Small {
		return []int{2_000, 10_000}
	}
	return []int{10_000, 100_000, 400_000}
}

func (c Config) queries() int {
	if c.Small {
		return 10
	}
	return 50
}

// logB is ceil(log_b n), the paper's search term.
func logB(n, b int) int {
	if b < 2 {
		b = 2
	}
	r := 1
	for v := 1; v < n; v *= b {
		r++
	}
	return r
}

func log2(n int) int {
	r := 0
	for v := 1; v < n; v *= 2 {
		r++
	}
	return r
}

// measure2Sided runs the queries cold and returns average reads per query
// and average results per query.
func measure2Sided(s *disk.Store, idx extpst.PointIndex, qs []workload.TwoSidedQuery) (avgReads, avgT float64, err error) {
	var reads, results int64
	for _, q := range qs {
		s.ResetStats()
		pts, _, err := idx.Query(q.A, q.B)
		if err != nil {
			return 0, 0, err
		}
		reads += s.Stats().Reads
		results += int64(len(pts))
	}
	n := float64(len(qs))
	return float64(reads) / n, float64(results) / n, nil
}

// RunE1 reproduces experiment E1: 2-sided query I/O versus n and
// selectivity for the IKO baseline and the flat cached schemes
// (Lemma 3.1 / Theorem 3.2). The shape to observe: IKO grows with log2 n,
// the cached schemes with log_B n, and all share the t/B output term.
func RunE1(cfg Config) (*Table, error) {
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	tab := newTable("n\tselectivity\tavg t\tIKO\tbasic\tsegmented\tpredict log2(n/B)\tpredict logB(n)\tt/B",
		"E1: 2-sided query I/Os — optimal O(log_B n + t/B) vs IKO's O(log n + t/B)",
		fmt.Sprintf("    page=%dB  B=%d points/page", cfg.pageSize(), b))
	for _, n := range cfg.pointNs() {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		trees := map[extpst.Scheme]extpst.PointIndex{}
		stores := map[extpst.Scheme]*disk.Store{}
		for _, sc := range []extpst.Scheme{extpst.IKO, extpst.Basic, extpst.Segmented} {
			s := disk.MustStore(cfg.pageSize())
			tr, err := extpst.Build(s, pts, sc)
			if err != nil {
				return nil, err
			}
			trees[sc], stores[sc] = tr, s
		}
		for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1} {
			qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, sel, cfg.seed()+7)
			row := map[extpst.Scheme]float64{}
			var avgT float64
			for sc, tr := range trees {
				r, t, err := measure2Sided(stores[sc], tr, qs)
				if err != nil {
					return nil, err
				}
				row[sc], avgT = r, t
			}
			tab.addf("%d\t%g\t%.0f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%.1f",
				n, sel, avgT, row[extpst.IKO], row[extpst.Basic], row[extpst.Segmented],
				log2(n/b+2), logB(n, b), avgT/float64(b))
		}
	}
	return tab, nil
}

// RunE2 reproduces experiment E2: the storage ladder across every scheme
// and several page sizes. Shape: IKO ~ n/B; Segmented ~ (n/B)·log B;
// Basic ~ (n/B)·log(n/B); TwoLevel ~ (n/B)·log log B below Segmented for
// B >> log B; Multilevel within a small factor of TwoLevel (log* B equals
// log log B at any realistic B — the crossover E2 documents).
func RunE2(cfg Config) (*Table, error) {
	tab := newTable("page\tB\tn\tn/B\tIKO\tbasic\tsegmented\ttwo-level\tmultilevel\tlogB\tloglogB",
		"E2: storage in pages — the space ladder of Sections 3 and 4")
	sizes := []int{512, 4096, 16384}
	if cfg.Small {
		sizes = []int{512, 4096}
	}
	for _, ps := range sizes {
		b := disk.ChainCap(ps, record.PointSize)
		for _, n := range cfg.pointNs() {
			pts := workload.UniformPoints(n, 1<<30, cfg.seed())
			pages := map[string]int{}
			for _, sc := range []extpst.Scheme{extpst.IKO, extpst.Basic, extpst.Segmented} {
				s := disk.MustStore(ps)
				tr, err := extpst.Build(s, pts, sc)
				if err != nil {
					return nil, err
				}
				pages[sc.String()] = tr.TotalPages()
			}
			for name, levels := range map[string]int{"two-level": 2, "multilevel": 64} {
				s := disk.MustStore(ps)
				tr, err := extpst.BuildHierarchical(s, pts, levels)
				if err != nil {
					return nil, err
				}
				pages[name] = tr.TotalPages()
			}
			tab.addf("%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
				ps, b, n, n/b, pages["iko"], pages["basic"], pages["segmented"],
				pages["two-level"], pages["multilevel"], log2(b), log2(log2(b)+1))
		}
	}
	return tab, nil
}

// RunE3 reproduces experiment E3: query I/O of the recursive schemes
// (Theorems 4.3/4.4) stays optimal while their storage shrinks.
func RunE3(cfg Config) (*Table, error) {
	tab := newTable("n\tselectivity\tavg t\tsegmented\ttwo-level\tmultilevel\tpredict logB(n)+t/B",
		"E3: 2-sided query I/Os for the recursive schemes (Theorems 4.3/4.4)")
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	for _, n := range cfg.pointNs() {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		idx := map[string]extpst.PointIndex{}
		st := map[string]*disk.Store{}
		{
			s := disk.MustStore(cfg.pageSize())
			tr, err := extpst.Build(s, pts, extpst.Segmented)
			if err != nil {
				return nil, err
			}
			idx["segmented"], st["segmented"] = tr, s
		}
		for name, levels := range map[string]int{"two-level": 2, "multilevel": 64} {
			s := disk.MustStore(cfg.pageSize())
			tr, err := extpst.BuildHierarchical(s, pts, levels)
			if err != nil {
				return nil, err
			}
			idx[name], st[name] = tr, s
		}
		for _, sel := range []float64{0.0001, 0.01, 0.1} {
			qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, sel, cfg.seed()+9)
			row := map[string]float64{}
			var avgT float64
			for name, tr := range idx {
				r, t, err := measure2Sided(st[name], tr, qs)
				if err != nil {
					return nil, err
				}
				row[name], avgT = r, t
			}
			tab.addf("%d\t%g\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f",
				n, sel, avgT, row["segmented"], row["two-level"], row["multilevel"],
				float64(logB(n, b))+avgT/float64(b))
		}
	}
	return tab, nil
}

// RunE4 reproduces experiment E4 (Theorem 5.1): amortized update cost and
// query cost of the dynamic structure across n, against the folklore
// logarithmic-method baseline. Shape: both update cheaply, but the
// logarithmic method pays a per-level query tax (O(log(n/B)·log_B n + t/B))
// that the paper's buffered structure avoids.
func RunE4(cfg Config) (*Table, error) {
	tab := newTable("n\tinsert IO/op\tdelete IO/op\tquery reads\tavg t\tpages\tlogm insert\tlogm query\tlogm levels\tpredict logB(n)",
		"E4: dynamic structure (Theorem 5.1) vs the logarithmic-method baseline")
	// Dynamic sizes are capped: super-node re-levelling makes full-size
	// builds wall-clock heavy without changing the log_B n shape.
	ns := []int{10_000, 50_000, 150_000}
	if cfg.Small {
		ns = []int{2_000, 10_000}
	}
	for _, n := range ns {
		s := disk.MustStore(cfg.pageSize())
		tr, err := dynpst.New(s)
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

		qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, 0.01, cfg.seed()+11)
		var reads, results int64
		for _, q := range qs {
			s.ResetStats()
			got, _, err := tr.Query(q.A, q.B)
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

		// The logarithmic-method baseline over the same trace.
		sL := disk.MustStore(cfg.pageSize())
		lm, err := logmethod.New(sL)
		if err != nil {
			return nil, err
		}
		sL.ResetStats()
		for _, p := range pts {
			if err := lm.Insert(p); err != nil {
				return nil, err
			}
		}
		lmInsertIO := float64(sL.Stats().Total()) / float64(n)
		var lmReads int64
		for _, q := range qs {
			sL.ResetStats()
			if _, err := lm.Query(q.A, q.B); err != nil {
				return nil, err
			}
			lmReads += sL.Stats().Reads
		}

		tab.addf("%d\t%.1f\t%.1f\t%.1f\t%.0f\t%d\t%.1f\t%.1f\t%d\t%d",
			n, insertIO, deleteIO,
			float64(reads)/float64(len(qs)), float64(results)/float64(len(qs)),
			pages, lmInsertIO, float64(lmReads)/float64(len(qs)), lm.Levels(), logB(n, tr.B()))
	}
	return tab, nil
}

// RunE5 reproduces experiment E5 (Theorem 3.4) and Figure 3: stabbing cost
// of the external segment tree, naive vs path-cached, with the wasteful /
// useful I/O split. Shape: the naive variant's wasteful I/Os track the tree
// depth (log n), the cached variant's stay O(1)+paid.
func RunE5(cfg Config) (*Table, error) {
	tab := newTable("workload\tn\tavg t\tnaive reads\tnaive wasteful\tcached reads\tcached wasteful\tcached pages\tnaive pages",
		"E5/F3: external segment tree stabbing — naive vs path-cached (Figure 3)")
	for _, wl := range []string{"uniform", "nested"} {
		for _, n := range cfg.pointNs() {
			var ivs []record.Interval
			if wl == "uniform" {
				ivs = workload.UniformIntervals(n, 1<<30, 1<<24, cfg.seed())
			} else {
				ivs = workload.NestedIntervals(n, 200, 1<<30, cfg.seed())
			}
			qs := workload.StabQueries(cfg.queries(), 1<<30, cfg.seed()+13)
			type res struct {
				reads, wasteful, t float64
				pages              int
			}
			out := map[extseg.Variant]res{}
			for _, v := range []extseg.Variant{extseg.Naive, extseg.PathCached} {
				s := disk.MustStore(cfg.pageSize())
				tr, err := extseg.Build(s, ivs, v)
				if err != nil {
					return nil, err
				}
				var reads, wasteful, results int64
				for _, q := range qs {
					s.ResetStats()
					got, st, err := tr.Stab(q)
					if err != nil {
						return nil, err
					}
					reads += s.Stats().Reads
					wasteful += int64(st.WastefulIOs)
					results += int64(len(got))
				}
				qn := float64(len(qs))
				out[v] = res{float64(reads) / qn, float64(wasteful) / qn, float64(results) / qn, tr.TotalPages()}
			}
			tab.addf("%s\t%d\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d",
				wl, n, out[extseg.PathCached].t,
				out[extseg.Naive].reads, out[extseg.Naive].wasteful,
				out[extseg.PathCached].reads, out[extseg.PathCached].wasteful,
				out[extseg.PathCached].pages, out[extseg.Naive].pages)
		}
	}
	return tab, nil
}

// RunE6 reproduces experiment E6 (Theorem 3.5): the external interval tree
// matches the segment tree's optimal queries in a log n / log B factor less
// space. The stabbing columns answer the same stabs through the
// diagonal-corner reduction behind the public StabbingIndex: interval
// [lo, hi] becomes the point (-lo, hi) of a segmented 2-sided structure, and
// a stab at q becomes the 2-sided query {x >= -q, y >= q}.
func RunE6(cfg Config) (*Table, error) {
	tab := newTable("n\tavg t\tinterval reads\tsegment reads\tinterval pages\tsegment pages\tpage ratio\tstabbing reads\tstabbing pages",
		"E6: external interval tree (Theorem 3.5) vs segment tree (Theorem 3.4)")
	for _, n := range cfg.pointNs() {
		ivs := workload.UniformIntervals(n, 1<<30, 1<<24, cfg.seed())
		qs := workload.StabQueries(cfg.queries(), 1<<30, cfg.seed()+17)

		sI := disk.MustStore(cfg.pageSize())
		ti, err := extint.Build(sI, ivs, extint.PathCached)
		if err != nil {
			return nil, err
		}
		sS := disk.MustStore(cfg.pageSize())
		ts, err := extseg.Build(sS, ivs, extseg.PathCached)
		if err != nil {
			return nil, err
		}
		corners := make([]record.Point, len(ivs))
		for i, iv := range ivs {
			corners[i] = record.Point{X: -iv.Lo, Y: iv.Hi, ID: iv.ID}
		}
		sP := disk.MustStore(cfg.pageSize())
		tp, err := extpst.Build(sP, corners, extpst.Segmented)
		if err != nil {
			return nil, err
		}
		var readsI, readsS, readsP, results int64
		for _, q := range qs {
			sI.ResetStats()
			got, _, err := ti.Stab(q)
			if err != nil {
				return nil, err
			}
			readsI += sI.Stats().Reads
			results += int64(len(got))
			sS.ResetStats()
			if _, _, err := ts.Stab(q); err != nil {
				return nil, err
			}
			readsS += sS.Stats().Reads
			sP.ResetStats()
			pts, _, err := tp.Query(-q, q)
			if err != nil {
				return nil, err
			}
			if len(pts) != len(got) {
				return nil, fmt.Errorf("E6 mismatch: stabbing %d vs interval %d", len(pts), len(got))
			}
			readsP += sP.Stats().Reads
		}
		qn := float64(len(qs))
		tab.addf("%d\t%.0f\t%.1f\t%.1f\t%d\t%d\t%.2f\t%.1f\t%d",
			n, float64(results)/qn, float64(readsI)/qn, float64(readsS)/qn,
			ti.TotalPages(), ts.TotalPages(),
			float64(ts.TotalPages())/float64(ti.TotalPages()),
			float64(readsP)/qn, tp.TotalPages())
	}
	return tab, nil
}

// RunE7 reproduces experiment E7 (Theorems 3.3/4.5): 3-sided query cost
// versus window width and selectivity.
func RunE7(cfg Config) (*Table, error) {
	tab := newTable("n\twindow\tselectivity\tavg t\treads\tpredict logB(n)+t/B\tpages",
		"E7: 3-sided queries (Theorems 3.3/4.5)")
	b := disk.ChainCap(cfg.pageSize(), record.PointSize)
	for _, n := range cfg.pointNs() {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		s := disk.MustStore(cfg.pageSize())
		tr, err := ext3side.Build(s, pts)
		if err != nil {
			return nil, err
		}
		for _, wf := range []float64{0.01, 0.1, 0.5} {
			for _, sel := range []float64{0.001, 0.01} {
				if sel >= wf {
					continue
				}
				qs := workload.ThreeSidedQueries(cfg.queries(), 1<<30, wf, sel, cfg.seed()+19)
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
				qn := float64(len(qs))
				avgT := float64(results) / qn
				tab.addf("%d\t%g\t%g\t%.0f\t%.1f\t%.1f\t%d",
					n, wf, sel, avgT, float64(reads)/qn,
					float64(logB(n, b))+avgT/float64(b), tr.TotalPages())
			}
		}
	}
	return tab, nil
}

// RunE8 reproduces experiment E8: the B+-tree is optimal in one dimension
// but answering a 2-sided query by x-range scan plus filter reads t_x/B
// pages where the 2-sided structure reads t/B — the motivating gap of
// Section 1.
func RunE8(cfg Config) (*Table, error) {
	tab := newTable("n\tselectivity\tavg t\tavg t_x\tbtree reads\tsegmented reads\tratio",
		"E8: B+-tree 1-D baseline vs 2-sided structure on 2-D queries")
	for _, n := range cfg.pointNs() {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		sB := disk.MustStore(cfg.pageSize())
		bt, err := NewBTreeOnX(sB, pts)
		if err != nil {
			return nil, err
		}
		sP := disk.MustStore(cfg.pageSize())
		tp, err := extpst.Build(sP, pts, extpst.Segmented)
		if err != nil {
			return nil, err
		}
		// y-lookup table for the filter (in memory; the B+-tree pays only
		// for the x-scan, which is generous to the baseline).
		yOf := make(map[uint64]int64, n)
		for _, p := range pts {
			yOf[p.ID] = p.Y
		}
		for _, sel := range []float64{0.001, 0.01} {
			qs := workload.TwoSidedQueries(cfg.queries(), 1<<30, sel, cfg.seed()+23)
			var readsB, readsP, results, xMatches int64
			for _, q := range qs {
				sB.ResetStats()
				var t, tx int64
				err := bt.Range(q.A, 1<<62, func(_ int64, id uint64) bool {
					tx++
					if yOf[id] >= q.B {
						t++
					}
					return true
				})
				if err != nil {
					return nil, err
				}
				readsB += sB.Stats().Reads
				results += t
				xMatches += tx
				sP.ResetStats()
				if _, _, err := tp.Query(q.A, q.B); err != nil {
					return nil, err
				}
				readsP += sP.Stats().Reads
			}
			qn := float64(len(qs))
			rb, rp := float64(readsB)/qn, float64(readsP)/qn
			tab.addf("%d\t%g\t%.0f\t%.0f\t%.1f\t%.1f\t%.1fx",
				n, sel, float64(results)/qn, float64(xMatches)/qn, rb, rp, rb/rp)
		}
	}
	return tab, nil
}
