package bench

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/ext3side"
	"pathcache/internal/extpst"
	"pathcache/internal/extwindow"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// RunE10 measures the 4-sided extension (Figure 1's outermost class, left
// open by the paper): the window range tree vs answering the same window
// with a 3-sided query plus a y2 filter — whose wasted output grows with
// everything above the window.
func RunE10(cfg Config) (*Table, error) {
	tab := newTable("n\ty-window\tavg t\twindow reads\t3-sided+filter reads\tratio\twindow pages\t3-sided pages",
		"E10 (extension): 4-sided windows — range tree vs 3-sided + filter")
	ns := cfg.pointNs()
	for _, n := range ns {
		pts := workload.UniformPoints(n, 1<<30, cfg.seed())
		sW := disk.MustStore(cfg.pageSize())
		win, err := extwindow.Build(sW, pts)
		if err != nil {
			return nil, err
		}
		sT := disk.MustStore(cfg.pageSize())
		three, err := ext3side.Build(sT, pts)
		if err != nil {
			return nil, err
		}
		for _, yFrac := range []float64{0.01, 0.2} {
			// Windows sit uniformly in y (not near the top), so the 3-sided
			// route must fetch and discard everything above the window.
			qs := workload.ThreeSidedQueries(cfg.queries(), 1<<30, 0.1, 0.02, cfg.seed()+41)
			ys := workload.StabQueries(len(qs), (1<<30)-int64(float64(int64(1)<<30)*yFrac), cfg.seed()+42)
			height := int64(float64(int64(1)<<30) * yFrac)
			var readsW, readsT, results int64
			for qi, q := range qs {
				y1 := ys[qi]
				y2 := y1 + height
				sW.ResetStats()
				got, _, err := win.Query(q.A1, q.A2, y1, y2)
				if err != nil {
					return nil, err
				}
				readsW += sW.Stats().Reads
				results += int64(len(got))

				sT.ResetStats()
				all, _, err := three.Query(q.A1, q.A2, y1)
				if err != nil {
					return nil, err
				}
				readsT += sT.Stats().Reads
				// Filter (free, in memory) — the I/O was already paid.
				kept := 0
				for _, p := range all {
					if p.Y <= y2 {
						kept++
					}
				}
				if kept != len(got) {
					return nil, fmt.Errorf("E10 mismatch: window %d vs filtered %d", len(got), kept)
				}
			}
			qn := float64(len(qs))
			rw, rt := float64(readsW)/qn, float64(readsT)/qn
			tab.addf("%d\t%.0f%%\t%.0f\t%.1f\t%.1f\t%.1fx\t%d\t%d",
				n, yFrac*100, float64(results)/qn, rw, rt, rt/rw,
				win.TotalPages(), three.TotalPages())
		}
	}
	return tab, nil
}

// RunA3 is the workload-shape ablation: the same Segmented index and query
// mix over uniform, clustered, diagonal and Zipf-skewed data. The bounds
// are worst-case; this table shows how data shape moves the constants.
func RunA3(cfg Config) (*Table, error) {
	tab := newTable("workload\tn\tavg t\treads/query\twasteful/query\tpages",
		"A3 (ablation): workload shape vs 2-sided query cost (Segmented scheme)")
	n := 100_000
	if cfg.Small {
		n = 10_000
	}
	const max = 1 << 30
	workloads := []struct {
		name string
		pts  []record.Point
	}{
		{"uniform", workload.UniformPoints(n, max, cfg.seed())},
		{"clustered", workload.ClusteredPoints(n, 8, max, max/64, cfg.seed())},
		{"diagonal", workload.DiagonalPoints(n, max, max/32, cfg.seed())},
		{"zipf-y", workload.ZipfPoints(n, max, 1.2, cfg.seed())},
	}
	qs := workload.TwoSidedQueries(cfg.queries(), max, 0.01, cfg.seed()+43)
	for _, wl := range workloads {
		s := disk.MustStore(cfg.pageSize())
		tr, err := extpst.Build(s, wl.pts, extpst.Segmented)
		if err != nil {
			return nil, err
		}
		var reads, wasteful, results int64
		for _, q := range qs {
			s.ResetStats()
			got, st, err := tr.Query(q.A, q.B)
			if err != nil {
				return nil, err
			}
			reads += s.Stats().Reads
			wasteful += int64(st.WastefulIOs)
			results += int64(len(got))
		}
		qn := float64(len(qs))
		tab.addf("%s\t%d\t%.0f\t%.1f\t%.1f\t%d",
			wl.name, n, float64(results)/qn, float64(reads)/qn, float64(wasteful)/qn, tr.TotalPages())
	}
	return tab, nil
}
