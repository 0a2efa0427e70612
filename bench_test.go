// Benchmarks: one per experiment table/figure of EXPERIMENTS.md. Each
// benchmark reports the I/O metrics the paper's bounds speak about —
// page reads per operation — next to Go's time/op. Regenerate the full
// tables with: go run ./cmd/pcbench
package pathcache_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"pathcache"

	"pathcache/internal/bench"
	"pathcache/internal/disk"
	"pathcache/internal/dynpst"
	"pathcache/internal/ext3side"
	"pathcache/internal/extint"
	"pathcache/internal/extpst"
	"pathcache/internal/extseg"
	"pathcache/internal/extwindow"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

const (
	benchN    = 50_000
	benchPage = 4096
	benchSel  = 0.01
)

var benchPts = sync.OnceValue(func() []record.Point {
	return workload.UniformPoints(benchN, 1<<30, 42)
})

var benchIvs = sync.OnceValue(func() []record.Interval {
	return workload.UniformIntervals(benchN, 1<<30, 1<<24, 42)
})

type builtPST struct {
	store *disk.Store
	idx   extpst.PointIndex
}

func buildPST(b *testing.B, scheme extpst.Scheme) builtPST {
	b.Helper()
	s := disk.MustStore(benchPage)
	tr, err := extpst.Build(s, benchPts(), scheme)
	if err != nil {
		b.Fatal(err)
	}
	return builtPST{s, tr}
}

func runTwoSidedQueries(b *testing.B, s *disk.Store, idx extpst.PointIndex) {
	b.Helper()
	qs := workload.TwoSidedQueries(64, 1<<30, benchSel, 43)
	s.ResetStats()
	var results int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, _, err := idx.Query(qs[i%len(qs)].A, qs[i%len(qs)].B)
		if err != nil {
			b.Fatal(err)
		}
		results += int64(len(pts))
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// E1: 2-sided queries, cached schemes vs the IKO baseline.
func BenchmarkE1TwoSidedQueryIKO(b *testing.B) {
	p := buildPST(b, extpst.IKO)
	runTwoSidedQueries(b, p.store, p.idx)
}

func BenchmarkE1TwoSidedQueryBasic(b *testing.B) {
	p := buildPST(b, extpst.Basic)
	runTwoSidedQueries(b, p.store, p.idx)
}

func BenchmarkE1TwoSidedQuerySegmented(b *testing.B) {
	p := buildPST(b, extpst.Segmented)
	runTwoSidedQueries(b, p.store, p.idx)
}

// E2: build cost and storage footprint per scheme (pages/op is the table's
// space column).
func benchBuild(b *testing.B, build func(*disk.Store) (int, error)) {
	var pages int
	for i := 0; i < b.N; i++ {
		s := disk.MustStore(benchPage)
		var err error
		pages, err = build(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pages), "pages")
}

func BenchmarkE2SpaceSegmented(b *testing.B) {
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := extpst.Build(s, benchPts(), extpst.Segmented)
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

func BenchmarkE2SpaceTwoLevel(b *testing.B) {
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := extpst.BuildTwoLevel(s, benchPts())
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

// Construction at n = 100k: time, bytes and allocations per build of the
// sort-once PST construction and its merge-built caches (DESIGN.md §2).
var buildBenchPts = sync.OnceValue(func() []record.Point {
	return workload.UniformPoints(100_000, 1<<30, 44)
})

func BenchmarkBuildTwoSidedSegmented(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := extpst.Build(s, buildBenchPts(), extpst.Segmented)
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

func BenchmarkBuildTwoLevel(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := extpst.BuildTwoLevel(s, buildBenchPts())
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

func BenchmarkBuildThreeSided(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := ext3side.Build(s, buildBenchPts())
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

func BenchmarkBuildWindow(b *testing.B) {
	b.ReportAllocs()
	benchBuild(b, func(s *disk.Store) (int, error) {
		tr, err := extwindow.Build(s, buildBenchPts())
		if err != nil {
			return 0, err
		}
		return tr.TotalPages(), nil
	})
}

// BenchmarkBuildFileTwoSided builds a 100,000-point Segmented 2-sided
// index through a file store on a real file with 4 KiB pages, the path
// Options.Path takes, and closes it. pwrites/page is the file's physical
// writes per page it ends up holding: the I/O model charges one.
func BenchmarkBuildFileTwoSided(b *testing.B) {
	pts := make([]pathcache.Point, 100_000)
	for i, p := range buildBenchPts() {
		pts[i] = pathcache.Point(p)
	}
	path := filepath.Join(b.TempDir(), "build.pc")
	var io pathcache.FileIO
	var pages int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts, err := pathcache.WithFileIO(pathcache.Options{PageSize: benchPage}, path, &io)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, opts)
		if err != nil {
			b.Fatal(err)
		}
		pages += int64(ix.Stats().Pages)
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(io.Writes.Load())/float64(pages), "pwrites/page")
}

// BenchmarkBuildDynamic builds the served lsm-mixed store's seed: a
// file-backed "lsm" over "twosided", 20,000 uniform points, MemtableEntries
// 1,024, 4 KiB pages. syncs/op counts the fsyncs the build pays before it
// returns (Close's own is not counted).
func BenchmarkBuildDynamic(b *testing.B) {
	pts := make([]pathcache.Point, 20_000)
	for i, p := range workload.UniformPoints(len(pts), 1<<30, 45) {
		pts[i] = pathcache.Point(p)
	}
	path := filepath.Join(b.TempDir(), "seed.pc")
	var io pathcache.FileIO
	var built int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts, err := pathcache.WithFileIO(pathcache.Options{PageSize: benchPage, MemtableEntries: 1024}, path, &io)
		if err != nil {
			b.Fatal(err)
		}
		before := io.Syncs.Load()
		b.StartTimer()
		ix, err := pathcache.BuildDynamic("twosided", pts, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		built += io.Syncs.Load() - before
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(built)/float64(b.N), "syncs/op")
}

// E3: queries on the recursive schemes.
func BenchmarkE3RecursiveQueryTwoLevel(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := extpst.BuildTwoLevel(s, benchPts())
	if err != nil {
		b.Fatal(err)
	}
	runTwoSidedQueries(b, s, tr)
}

func BenchmarkE3RecursiveQueryMultilevel(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := extpst.BuildMultilevel(s, benchPts())
	if err != nil {
		b.Fatal(err)
	}
	runTwoSidedQueries(b, s, tr)
}

// E4: dynamic updates and queries (Theorem 5.1).
func BenchmarkE4DynamicInsert(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := dynpst.New(s)
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPts()
	s.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		p.ID = uint64(i + 1)
		if err := tr.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Total())/float64(b.N), "IOs/op")
}

func BenchmarkE4DynamicQuery(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := dynpst.New(s)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range benchPts()[:20_000] {
		if err := tr.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	qs := workload.TwoSidedQueries(64, 1<<30, benchSel, 43)
	s.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Query(qs[i%len(qs)].A, qs[i%len(qs)].B); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
}

// E5: segment tree stabbing, naive vs path-cached (Figure 3's message).
func benchSegStab(b *testing.B, v extseg.Variant) {
	s := disk.MustStore(benchPage)
	tr, err := extseg.Build(s, benchIvs(), v)
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.StabQueries(64, 1<<30, 44)
	s.ResetStats()
	var wasteful int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := tr.Stab(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		wasteful += int64(st.WastefulIOs)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(wasteful)/float64(b.N), "wasteful/op")
}

func BenchmarkE5SegmentTreeNaive(b *testing.B)      { benchSegStab(b, extseg.Naive) }
func BenchmarkE5SegmentTreePathCached(b *testing.B) { benchSegStab(b, extseg.PathCached) }

// E6: interval tree stabbing (Theorem 3.5).
func BenchmarkE6IntervalTree(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := extint.Build(s, benchIvs(), extint.PathCached)
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.StabQueries(64, 1<<30, 44)
	s.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Stab(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
}

// E7: 3-sided queries (Theorems 3.3/4.5).
func BenchmarkE7ThreeSided(b *testing.B) {
	s := disk.MustStore(benchPage)
	tr, err := ext3side.Build(s, benchPts())
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.ThreeSidedQueries(64, 1<<30, 0.1, 0.005, 45)
	s.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, _, err := tr.Query(q.A1, q.A2, q.B); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
}

// E8: the B+-tree baseline answering 2-sided queries by x-scan + filter.
func BenchmarkE8BTreeBaseline(b *testing.B) {
	s := disk.MustStore(benchPage)
	bt, err := bench.NewBTreeOnX(s, benchPts())
	if err != nil {
		b.Fatal(err)
	}
	yOf := make(map[uint64]int64, benchN)
	for _, p := range benchPts() {
		yOf[p.ID] = p.Y
	}
	qs := workload.TwoSidedQueries(64, 1<<30, benchSel, 43)
	s.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		err := bt.Range(q.A, 1<<62, func(_ int64, id uint64) bool {
			_ = yOf[id]
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Reads)/float64(b.N), "reads/op")
}

// Public API overhead check: quickstart-style usage through pathcache.
func BenchmarkPublicTwoSidedQuery(b *testing.B) {
	pts := make([]pathcache.Point, benchN)
	for i, p := range benchPts() {
		pts[i] = pathcache.Point(p)
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeTwoLevel, &pathcache.Options{PageSize: benchPage})
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.TwoSidedQueries(64, 1<<30, benchSel, 43)
	ix.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Query(qs[i%len(qs)].A, qs[i%len(qs)].B); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ix.Stats().Reads)/float64(b.N), "reads/op")
}

// Public batch API: one op is a 64-query batch through a shared buffer
// pool. Compare workers=1 vs workers=8 for the fan-out overhead; on a
// multi-core machine the 8-worker batch also finishes faster. The pool's
// lock striping behind it is measured by internal/disk's
// BenchmarkPoolParallel (DESIGN §6).
func BenchmarkPublicQueryBatch(b *testing.B) {
	pts := make([]pathcache.Point, benchN)
	for i, p := range benchPts() {
		pts[i] = pathcache.Point(p)
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, &pathcache.Options{PageSize: benchPage, BufferPoolPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	raw := workload.TwoSidedQueries(64, 1<<30, benchSel, 47)
	qs := make([]pathcache.TwoSidedQuery, len(raw))
	for i, q := range raw {
		qs[i] = pathcache.TwoSidedQuery{A: q.A, B: q.B}
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.QueryBatch(qs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQuery is the report-sharded workload's query in
// process: a reopened file-backed 4-shard twosided store of 250,000
// points answering corners of about 2,000 points, whose x bound in the
// lower half of the domain makes 3 or 4 shards answer. B/op set against
// the answer's own bytes (results/op × 24) is the garbage the gather
// leaves behind.
func BenchmarkShardedQuery(b *testing.B) {
	const n, results = 250_000, 2000
	const span = int64(1) << 30
	pts := make([]pathcache.Point, n)
	for i, p := range workload.UniformPoints(n, span, 42) {
		pts[i] = pathcache.Point(p)
	}
	dir := b.TempDir()
	s, err := pathcache.BuildShardedPoints(dir, "twosided", pts, pathcache.ShardPlan{Shards: 4, Scheme: pathcache.SchemeSegmented}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if s, err = pathcache.OpenSharded(dir, nil); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// A corner (a, c) holds (span-a)(span-c)/span² of the points.
	rng := rand.New(rand.NewSource(43))
	qs := make([]pathcache.TwoSidedQuery, 64)
	for i := range qs {
		a := rng.Int63n(span / 2)
		c := span - int64(results/float64(n)*float64(span)*float64(span)/float64(span-a))
		qs[i] = pathcache.TwoSidedQuery{A: a, B: c}
	}
	got := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		pts, _, err := s.Query(q.A, q.B)
		if err != nil {
			b.Fatal(err)
		}
		got += len(pts)
	}
	b.ReportMetric(float64(got)/float64(b.N), "results/op")
}
