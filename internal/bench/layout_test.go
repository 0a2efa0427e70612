package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"pathcache"
	"pathcache/internal/btree"
	"pathcache/internal/disk"
	"pathcache/internal/workload"
)

// Layout battery: wall-clock cost of the two in-page layouts across the
// cache spectrum. The differential battery (layoutdiff_test.go at the repo
// root) proves the layouts answer identically with identical page counts;
// this battery measures what the Eytzinger layout buys on top — ns/op of
// the branchless zero-copy read path against the sorted layout's decoded
// reader, cold (every access a store read), warm (a pre-warmed pool absorbs
// every access), and under the async prefetch pipeline. With
// PCBENCH_LAYOUT_OUT set the run writes the BENCH_layout.json measurement
// family; `make bench-layout` wires that up.

type layoutCell struct {
	Structure  string  `json:"structure"` // e.g. "btree/eytzinger"
	Mode       string  `json:"mode"`      // cold | warm | pool
	Prefetch   bool    `json:"prefetch"`
	N          int     `json:"n"`
	Queries    int     `json:"queries"`
	NsPerOp    float64 `json:"ns_per_op"`
	AvgReads   float64 `json:"avg_reads"`
	AvgHits    float64 `json:"avg_hits"`
	AvgResults float64 `json:"avg_results"`
}

type layoutReport struct {
	Name     string `json:"name"`
	PageSize int    `json:"page_size"`
	Seed     int64  `json:"seed"`
	Small    bool   `json:"small"`
	// ColdSpeedup and WarmSpeedup are sorted-ns/op over eytzinger-ns/op for
	// the btree point-query battery without and with the warmed pool. Warm
	// is the headline number: with I/O out of the picture the layouts differ
	// only in per-page CPU work, which is exactly what they were built to
	// change.
	ColdSpeedup  float64      `json:"cold_speedup"`
	WarmSpeedup  float64      `json:"warm_speedup"`
	Measurements []layoutCell `json:"measurements"`
}

const (
	layoutBenchPage = 4096 // the claim is about big pages: >= 4 KiB
	layoutBenchN    = 200_000
	layoutBenchQ    = 4_000
	layoutBenchSeed = 1
	layoutBenchReps = 3 // timed passes; the fastest is reported
)

// timeBattery runs the battery reps times and returns the fastest wall
// clock — the standard defense against scheduler noise in a single pass.
func timeBattery(reps int, battery func()) time.Duration {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		battery()
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// btreePointBattery measures point queries (Search on a random mix of
// present and absent keys) for one layout, cold and warm, and returns the
// two cells. Every cell also reports a result checksum so the caller can
// pin cross-layout agreement alongside the timings.
func btreePointBattery(t *testing.T, layout disk.Layout, keys []int64) (cold, warm layoutCell, checksum uint64) {
	t.Helper()
	s := disk.MustStore(layoutBenchPage)
	entries := make([]btree.Entry, layoutBenchN)
	for i := range entries {
		// Even keys only, so odd query keys miss: the battery exercises both
		// the found and not-found descent.
		entries[i] = btree.Entry{Key: int64(i) * 2, Val: uint64(i) + 1}
	}
	tr, err := btree.BulkLoadLayout(s, entries, layout)
	if err != nil {
		t.Fatalf("bulk load %v: %v", layout, err)
	}

	name := "btree/" + layout.String()
	run := func(p disk.Pager) (sum uint64, results int64) {
		rd := tr.WithPager(p)
		for _, k := range keys {
			vals, err := rd.Search(k)
			if err != nil {
				t.Fatalf("%s search %d: %v", name, k, err)
			}
			for _, v := range vals {
				sum += v
				results++
			}
		}
		return sum, results
	}

	// Cold: every page access is a store read — the no-cache steady state.
	var ctr disk.Counter
	s.ResetStats()
	coldSum, results := run(disk.WithCounter(s, &ctr))
	coldNs := timeBattery(layoutBenchReps, func() { run(s) })
	cold = layoutCell{
		Structure:  name,
		Mode:       "cold",
		N:          layoutBenchN,
		Queries:    len(keys),
		NsPerOp:    float64(coldNs.Nanoseconds()) / float64(len(keys)),
		AvgReads:   float64(ctr.Stats().Reads) / float64(len(keys)),
		AvgResults: float64(results) / float64(len(keys)),
	}

	// Warm: a pool holding the whole tree, pre-warmed by one untimed pass,
	// absorbs every access — the timed passes do zero store I/O, so the
	// layouts differ only in per-page CPU work.
	// One shard: striping splits capacity across shards, and an unlucky
	// page-id mix could overflow one shard's share and evict. A single LRU
	// with capacity == NumPages provably never evicts.
	pool, err := disk.NewBufferPoolShards(s, s.NumPages(), 1)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	run(pool) // warm it
	var wctr disk.Counter
	warmSum, _ := run(pool.WithCounter(&wctr))
	if coldSum != warmSum {
		t.Fatalf("%s: warm battery checksum %d != cold %d", name, warmSum, coldSum)
	}
	if r := wctr.Stats().Reads; r != 0 {
		t.Fatalf("%s: warmed pool still issued %d store reads", name, r)
	}
	warmNs := timeBattery(layoutBenchReps, func() { run(pool) })
	warm = layoutCell{
		Structure:  name,
		Mode:       "warm",
		N:          layoutBenchN,
		Queries:    len(keys),
		NsPerOp:    float64(warmNs.Nanoseconds()) / float64(len(keys)),
		AvgHits:    float64(wctr.Hits()) / float64(len(keys)),
		AvgResults: float64(results) / float64(len(keys)),
	}
	return cold, warm, coldSum
}

// twoSidedPrefetchBattery measures the public two-sided index (the skeletal
// engine underneath hints the prefetcher during descent) under an
// eviction-prone pool, prefetch off and on, for one layout. The sum
// Reads+CacheHits per battery must not move — prefetch only shifts reads
// into hits — and that invariant is asserted here, not just recorded.
func twoSidedPrefetchBattery(t *testing.T, layout pathcache.Layout, workers int) (layoutCell, int64) {
	t.Helper()
	const (
		n    = 20_000
		q    = 200
		pool = 8 // deliberately tight: evictions give the prefetcher work
	)
	raw := workload.UniformPoints(n, 1<<30, layoutBenchSeed)
	pts := make([]pathcache.Point, len(raw))
	for i, p := range raw {
		pts[i] = pathcache.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, &pathcache.Options{
		PageSize:        layoutBenchPage,
		BufferPoolPages: pool,
		Layout:          layout,
		PrefetchWorkers: workers,
	})
	if err != nil {
		t.Fatalf("build twosided %v workers=%d: %v", layout, workers, err)
	}
	defer ix.Close()

	// Wide queries: each answer spans several chain pages that are cold in
	// the tight pool, so the descent's next-page hints have latency to hide.
	qs := workload.TwoSidedQueries(q, 1<<30, 0.1, layoutBenchSeed+1)
	var reads, hits, results int64
	for _, tq := range qs {
		out, prof, err := ix.QueryProfile(tq.A, tq.B)
		if err != nil {
			t.Fatalf("twosided %v workers=%d query: %v", layout, workers, err)
		}
		reads += prof.Reads
		hits += prof.CacheHits
		results += int64(len(out))
	}
	ns := timeBattery(layoutBenchReps, func() {
		for _, tq := range qs {
			if _, _, err := ix.Query(tq.A, tq.B); err != nil {
				t.Fatalf("twosided %v workers=%d query: %v", layout, workers, err)
			}
		}
	})
	return layoutCell{
		Structure:  fmt.Sprintf("twosided/%s", layout),
		Mode:       "pool",
		Prefetch:   workers > 0,
		N:          n,
		Queries:    q,
		NsPerOp:    float64(ns.Nanoseconds()) / float64(q),
		AvgReads:   float64(reads) / float64(q),
		AvgHits:    float64(hits) / float64(q),
		AvgResults: float64(results) / float64(q),
	}, reads + hits
}

func TestLayoutBench(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock battery")
	}
	rng := rand.New(rand.NewSource(layoutBenchSeed))
	keys := make([]int64, layoutBenchQ)
	for i := range keys {
		keys[i] = rng.Int63n(2 * layoutBenchN)
	}

	sortedCold, sortedWarm, sortedSum := btreePointBattery(t, disk.LayoutSorted, keys)
	eytzCold, eytzWarm, eytzSum := btreePointBattery(t, disk.LayoutEytzinger, keys)
	if sortedSum != eytzSum {
		t.Fatalf("layouts disagree on the point battery: sorted checksum %d, eytzinger %d", sortedSum, eytzSum)
	}
	if sortedCold.AvgReads != eytzCold.AvgReads {
		t.Fatalf("cold avg reads diverge: sorted %.3f, eytzinger %.3f (same tree shape must read the same pages)",
			sortedCold.AvgReads, eytzCold.AvgReads)
	}

	rep := layoutReport{
		Name:        "layout",
		PageSize:    layoutBenchPage,
		Seed:        layoutBenchSeed,
		Small:       true,
		ColdSpeedup: sortedCold.NsPerOp / eytzCold.NsPerOp,
		WarmSpeedup: sortedWarm.NsPerOp / eytzWarm.NsPerOp,
	}
	rep.Measurements = append(rep.Measurements, sortedCold, sortedWarm, eytzCold, eytzWarm)

	var sums [2][2]int64 // [layout][prefetch] -> touched pages
	for li, layout := range []pathcache.Layout{pathcache.LayoutSorted, pathcache.LayoutEytzinger} {
		for pi, workers := range []int{0, 2} {
			cell, touched := twoSidedPrefetchBattery(t, layout, workers)
			sums[li][pi] = touched
			rep.Measurements = append(rep.Measurements, cell)
			t.Logf("%s %s prefetch=%v: %.0f ns/op, reads %.2f, hits %.2f",
				cell.Structure, cell.Mode, cell.Prefetch, cell.NsPerOp, cell.AvgReads, cell.AvgHits)
		}
		if sums[li][0] != sums[li][1] {
			t.Fatalf("layout %v: prefetch changed touched pages %d -> %d (must only shift reads into hits)",
				layout, sums[li][0], sums[li][1])
		}
	}
	if sums[0][0] != sums[1][0] {
		t.Fatalf("touched pages diverge across layouts: sorted %d, eytzinger %d", sums[0][0], sums[1][0])
	}

	t.Logf("btree point queries, %d keys, %d queries, %dB pages", layoutBenchN, layoutBenchQ, layoutBenchPage)
	t.Logf("  sorted:    cold %.0f ns/op, warm %.0f ns/op", sortedCold.NsPerOp, sortedWarm.NsPerOp)
	t.Logf("  eytzinger: cold %.0f ns/op, warm %.0f ns/op", eytzCold.NsPerOp, eytzWarm.NsPerOp)
	t.Logf("  speedup:   cold %.2fx, warm %.2fx", rep.ColdSpeedup, rep.WarmSpeedup)

	// The tentpole claim: with I/O removed the zero-copy branchless path must
	// be decisively faster at 4 KiB pages. The committed artifact records the
	// measured ratio (>= 1.5x on every machine tried); the gate leaves head
	// room for noisy shared CI runners without letting a regression to parity
	// slip through.
	if rep.WarmSpeedup < 1.2 {
		t.Errorf("warm-pool speedup %.2fx below 1.2x: the branchless read path regressed", rep.WarmSpeedup)
	}

	if out := os.Getenv("PCBENCH_LAYOUT_OUT"); out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("marshal bench: %v", err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", out, err)
		}
		t.Logf("wrote %s", out)
	}
}
