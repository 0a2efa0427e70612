package pathcache

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache/internal/workload"
)

// Differential battery: a sharded store must answer byte-identically to a
// single store holding the same records, for every kind, serial and
// batched, with per-shard bound sentinels armed.

func shardedPoints(n int, seed int64) []Point {
	return fromRecPoints(workload.UniformPoints(n, 2000, seed))
}

func shardedIntervals(n int, seed int64) []Interval {
	return fromRecIntervals(workload.UniformIntervals(n, 2000, 200, seed))
}

func shardedBuildOpts() *Options { return &Options{PageSize: 256} }

func shardedOpenOpts() *Options { return &Options{PageSize: 256, StrictBounds: true} }

func twoSidedQueries(n int, seed int64) []TwoSidedQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]TwoSidedQuery, 0, n+2)
	for i := 0; i < n; i++ {
		qs = append(qs, TwoSidedQuery{A: rng.Int63n(2200) - 100, B: rng.Int63n(2200) - 100})
	}
	// Extremes: everything, and nothing.
	return append(qs, TwoSidedQuery{A: math.MinInt64, B: math.MinInt64}, TwoSidedQuery{A: 5000, B: 5000})
}

func TestShardedTwoSidedDifferential(t *testing.T) {
	pts := shardedPoints(800, 7)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 5, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s, err = OpenSharded(dir, shardedOpenOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if s.NumShards() != 5 {
		t.Fatalf("NumShards = %d, want 5", s.NumShards())
	}
	if s.ContentKind() != "twosided" || s.Kind() != "shard" {
		t.Fatalf("kinds = %s/%s", s.Kind(), s.ContentKind())
	}
	if s.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pts))
	}
	oracle, err := NewTwoSidedIndex(pts, SchemeSegmented, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()

	qs := twoSidedQueries(64, 8)
	for _, q := range qs {
		got, profs, err := s.QueryProfile(q.A, q.B)
		if err != nil {
			t.Fatalf("Query(%d,%d): %v", q.A, q.B, err)
		}
		want, _, err := oracle.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sortPoints(want)
		if !samePoints(got, want) {
			t.Fatalf("Query(%d,%d): %d results, want %d", q.A, q.B, len(got), len(want))
		}
		var profResults int
		for _, p := range profs {
			profResults += p.Results
		}
		if profResults != len(got) {
			t.Fatalf("Query(%d,%d): per-shard profile results %d != %d", q.A, q.B, profResults, len(got))
		}
	}

	for _, workers := range []int{1, 3, 8} {
		got, st, err := s.QueryBatch(qs, workers)
		if err != nil {
			t.Fatalf("QueryBatch(workers=%d): %v", workers, err)
		}
		want, _, err := oracle.QueryBatch(qs, workers)
		if err != nil {
			t.Fatalf("oracle batch: %v", err)
		}
		if st.Queries != len(qs) {
			t.Fatalf("batch Queries = %d, want %d", st.Queries, len(qs))
		}
		for i := range want {
			sortPoints(want[i])
			if !samePoints(got[i], want[i]) {
				t.Fatalf("batch query %d: %d results, want %d", i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestShardedBoundSentinels arms an absurdly tight per-shard bound and
// asserts a scatter-gathered sub-query still trips its kind's sentinel:
// sharding must not launder theorem-bound breaches.
func TestShardedBoundSentinels(t *testing.T) {
	pts := shardedPoints(600, 9)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 3, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Close()
	s, err = OpenSharded(dir, &Options{PageSize: 256, StrictBounds: true, BoundMaxRatio: 1e-9, BoundSlack: 1e-9})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	_, prof, err := s.Query(math.MinInt64, math.MinInt64)
	if !errors.Is(err, ErrBoundExceeded) {
		t.Fatalf("tight sentinel: err = %v, want ErrBoundExceeded", err)
	}
	var be *BoundError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not carry *BoundError", err)
	}
	// Like a single store's serial op, a breach keeps its I/O profile:
	// every shard gathered so far, the breaching one included.
	if prof.Reads != be.Event.Reads {
		t.Fatalf("breach profile: %d reads, want the breaching shard's %d", prof.Reads, be.Event.Reads)
	}
	_, profs, err := s.QueryProfile(math.MinInt64, math.MinInt64)
	if !errors.As(err, &be) {
		t.Fatalf("QueryProfile: err = %v, want a *BoundError", err)
	}
	if len(profs) != 1 || profs[0].Shard != 0 || profs[0].Reads != be.Event.Reads || profs[0].BoundRatio != be.Event.Ratio {
		t.Fatalf("QueryProfile breach profiles %+v, want shard 0's with %d reads at ratio %g", profs, be.Event.Reads, be.Event.Ratio)
	}
	if _, _, err := s.QueryBatchShards(twoSidedQueries(8, 10), 2); !errors.Is(err, ErrBoundExceeded) {
		t.Fatalf("tight batch sentinel: err = %v, want ErrBoundExceeded", err)
	}
}

// TestShardedAnswersOwned proves a sharded answer is the caller's alone:
// no pooled gather memory escapes into it. Concurrent Query, Stab and
// QueryBatch goroutines each check an answer against its reference, then
// overwrite it; were any answer backed by a pooled buffer, that write
// would land in another goroutine's gather or in a later answer, and a
// re-check would fail. Run it under -race.
func TestShardedAnswersOwned(t *testing.T) {
	pts, err := BuildShardedPoints(t.TempDir(), "twosided", shardedPoints(800, 31), ShardPlan{Shards: 4, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build points: %v", err)
	}
	defer pts.Close()
	ivs, err := BuildShardedIntervals(t.TempDir(), "interval", shardedIntervals(800, 32), ShardPlan{Shards: 4}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build intervals: %v", err)
	}
	defer ivs.Close()

	qs := twoSidedQueries(24, 33)
	stabs := []int64{0, 150, 700, 1000, 1400, 1999}
	wantPts := make([][]Point, len(qs))
	for i, q := range qs {
		got, _, err := pts.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		wantPts[i] = slices.Clone(got)
	}
	wantIvs := make([][]Interval, len(stabs))
	for i, q := range stabs {
		got, _, err := ivs.Stab(q)
		if err != nil {
			t.Fatalf("Stab: %v", err)
		}
		wantIvs[i] = slices.Clone(got)
	}

	const rounds = 30
	poison := Point{X: -1, Y: -1, ID: math.MaxUint64}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r + g) % len(qs)
				got, _, err := pts.Query(qs[i].A, qs[i].B)
				if err != nil || !slices.Equal(got, wantPts[i]) {
					t.Errorf("Query %d: %d results, err %v; want %d", i, len(got), err, len(wantPts[i]))
					return
				}
				for j := range got {
					got[j] = poison
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r + g) % len(stabs)
				got, _, err := ivs.Stab(stabs[i])
				if err != nil || !slices.Equal(got, wantIvs[i]) {
					t.Errorf("Stab %d: %d results, err %v; want %d", stabs[i], len(got), err, len(wantIvs[i]))
					return
				}
				for j := range got {
					got[j] = Interval{Lo: poison.X, Hi: poison.Y, ID: poison.ID}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds/6; r++ {
				got, _, err := pts.QueryBatch(qs, 2)
				if err != nil {
					t.Errorf("QueryBatch: %v", err)
					return
				}
				for i := range got {
					if !slices.Equal(got[i], wantPts[i]) {
						t.Errorf("QueryBatch[%d]: %d results, want %d", i, len(got[i]), len(wantPts[i]))
						return
					}
					for j := range got[i] {
						got[i][j] = poison
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestShardedThreeSidedDifferential(t *testing.T) {
	pts := shardedPoints(700, 21)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "threeside", pts, ShardPlan{Shards: 4}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Close()
	s, err = OpenSharded(dir, shardedOpenOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	oracle, err := NewThreeSidedIndex(pts, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()

	rng := rand.New(rand.NewSource(22))
	var qs []ThreeSidedQuery
	for i := 0; i < 48; i++ {
		a1 := rng.Int63n(2200) - 100
		qs = append(qs, ThreeSidedQuery{A1: a1, A2: a1 + rng.Int63n(800), B: rng.Int63n(2200) - 100})
	}
	qs = append(qs, ThreeSidedQuery{A1: math.MinInt64, A2: math.MaxInt64, B: math.MinInt64})
	for _, q := range qs {
		got, _, err := s.QueryThreeSided(q.A1, q.A2, q.B)
		if err != nil {
			t.Fatalf("QueryThreeSided: %v", err)
		}
		want, _, err := oracle.QueryThreeSided(q.A1, q.A2, q.B)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sortPoints(want)
		if !samePoints(got, want) {
			t.Fatalf("QueryThreeSided(%d,%d,%d): %d results, want %d", q.A1, q.A2, q.B, len(got), len(want))
		}
	}
	got, _, err := s.QueryThreeSidedBatch(qs, 4)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	want, _, err := oracle.QueryThreeSidedBatch(qs, 4)
	if err != nil {
		t.Fatalf("oracle batch: %v", err)
	}
	for i := range want {
		sortPoints(want[i])
		if !samePoints(got[i], want[i]) {
			t.Fatalf("batch query %d mismatch", i)
		}
	}
}

func TestShardedWindowDifferential(t *testing.T) {
	pts := shardedPoints(700, 31)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "window", pts, ShardPlan{Shards: 4}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Close()
	s, err = OpenSharded(dir, shardedOpenOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	oracle, err := NewWindowIndex(pts, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()

	rng := rand.New(rand.NewSource(32))
	var qs []WindowQuery
	for i := 0; i < 48; i++ {
		x1 := rng.Int63n(2200) - 100
		y1 := rng.Int63n(2200) - 100
		qs = append(qs, WindowQuery{X1: x1, X2: x1 + rng.Int63n(900), Y1: y1, Y2: y1 + rng.Int63n(900)})
	}
	qs = append(qs, WindowQuery{X1: math.MinInt64, X2: math.MaxInt64, Y1: math.MinInt64, Y2: math.MaxInt64})
	for _, q := range qs {
		got, _, err := s.WindowQuery(q.X1, q.X2, q.Y1, q.Y2)
		if err != nil {
			t.Fatalf("WindowQuery: %v", err)
		}
		want, _, err := oracle.WindowQuery(q.X1, q.X2, q.Y1, q.Y2)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sortPoints(want)
		if !samePoints(got, want) {
			t.Fatalf("WindowQuery(%+v): %d results, want %d", q, len(got), len(want))
		}
	}
	got, _, err := s.WindowQueryBatch(qs, 4)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	want, _, err := oracle.WindowQueryBatch(qs, 4)
	if err != nil {
		t.Fatalf("oracle batch: %v", err)
	}
	for i := range want {
		sortPoints(want[i])
		if !samePoints(got[i], want[i]) {
			t.Fatalf("batch query %d mismatch", i)
		}
	}
}

func TestShardedStabDifferential(t *testing.T) {
	ivs := shardedIntervals(500, 41)
	rng := rand.New(rand.NewSource(42))
	qs := make([]int64, 0, 50)
	for i := 0; i < 48; i++ {
		qs = append(qs, rng.Int63n(2400)-100)
	}
	qs = append(qs, 0, 2199)
	for _, kind := range []string{"segment", "interval", "stabbing"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			s, err := BuildShardedIntervals(dir, kind, ivs, ShardPlan{Shards: 4, Scheme: SchemeSegmented}, shardedBuildOpts())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			s.Close()
			s, err = OpenSharded(dir, shardedOpenOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s.Close()
			var stab func(q int64) ([]Interval, IOProfile, error)
			var stabBatch func(qs []int64, workers int) ([][]Interval, BatchStats, error)
			switch kind {
			case "segment":
				o, err := NewSegmentIndex(ivs, true, nil)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				defer o.Close()
				stab, stabBatch = o.Stab, o.StabBatch
			case "interval":
				o, err := NewIntervalIndex(ivs, true, nil)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				defer o.Close()
				stab, stabBatch = o.Stab, o.StabBatch
			default:
				o, err := NewStabbingIndex(ivs, SchemeSegmented, nil)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				defer o.Close()
				stab, stabBatch = o.Stab, o.StabBatch
			}
			for _, q := range qs {
				got, _, err := s.Stab(q)
				if err != nil {
					t.Fatalf("Stab(%d): %v", q, err)
				}
				want, _, err := stab(q)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				sortIntervals(want)
				if !sameIntervals(got, want) {
					t.Fatalf("Stab(%d): %d results, want %d", q, len(got), len(want))
				}
			}
			got, _, err := s.StabBatch(qs, 4)
			if err != nil {
				t.Fatalf("StabBatch: %v", err)
			}
			want, _, err := stabBatch(qs, 4)
			if err != nil {
				t.Fatalf("oracle batch: %v", err)
			}
			for i := range want {
				sortIntervals(want[i])
				if !sameIntervals(got[i], want[i]) {
					t.Fatalf("batch stab %d mismatch", i)
				}
			}
		})
	}
}

func TestShardedLSMDifferential(t *testing.T) {
	pts := shardedPoints(300, 51)
	dir := t.TempDir()
	opts := &Options{PageSize: 256, MemtableEntries: 32}
	s, err := BuildShardedPoints(dir, "lsm", pts, ShardPlan{Shards: 3}, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	if s.Base() != "twosided" {
		t.Fatalf("Base = %q, want twosided", s.Base())
	}
	oracle, err := BuildDynamic("twosided", pts, &Options{MemtableEntries: 32})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()

	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 120; i++ {
		p := Point{X: rng.Int63n(2000), Y: rng.Int63n(2000), ID: uint64(10_000 + i)}
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if _, err := oracle.Insert(p); err != nil {
			t.Fatalf("oracle Insert: %v", err)
		}
	}
	for i := 0; i < 60; i++ {
		p := pts[rng.Intn(len(pts))]
		ok, _, err := s.Has(p)
		if err != nil {
			t.Fatalf("Has: %v", err)
		}
		wantOk, _, err := oracle.Has(p)
		if err != nil {
			t.Fatalf("oracle Has: %v", err)
		}
		if ok != wantOk {
			t.Fatalf("Has(%+v) = %v, oracle %v", p, ok, wantOk)
		}
		if !ok {
			continue
		}
		if _, err := s.Delete(p); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := oracle.Delete(p); err != nil {
			t.Fatalf("oracle Delete: %v", err)
		}
	}
	if s.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle %d", s.Len(), oracle.Len())
	}

	qs := twoSidedQueries(40, 53)
	check := func(stage string) {
		t.Helper()
		for _, q := range qs {
			got, _, err := s.Query(q.A, q.B)
			if err != nil {
				t.Fatalf("%s Query: %v", stage, err)
			}
			want, _, err := oracle.Query(q.A, q.B)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			sortPoints(want)
			if !samePoints(got, want) {
				t.Fatalf("%s Query(%d,%d): %d results, want %d", stage, q.A, q.B, len(got), len(want))
			}
		}
		got, _, err := s.QueryBatch(qs, 3)
		if err != nil {
			t.Fatalf("%s QueryBatch: %v", stage, err)
		}
		want, _, err := oracle.QueryBatch(qs, 3)
		if err != nil {
			t.Fatalf("oracle batch: %v", err)
		}
		for i := range want {
			sortPoints(want[i])
			if !samePoints(got[i], want[i]) {
				t.Fatalf("%s batch query %d mismatch", stage, i)
			}
		}
	}
	check("live")
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check("compacted")

	// Durability: reopen from disk and compare once more.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s, err = OpenSharded(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	check("reopened")
}

// TestShardedBatchCounterSums pins the exact-attribution contract: each
// shard's batch statistics must equal that shard's store-level counter
// diff, per worker and in total — no pool, so nothing is absorbed.
func TestShardedBatchCounterSums(t *testing.T) {
	pts := shardedPoints(900, 61)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 4, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Close()
	s, err = OpenSharded(dir, &Options{PageSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()

	qs := twoSidedQueries(80, 62)
	before := s.ShardStats()
	_, per, err := s.QueryBatchShards(qs, 3)
	if err != nil {
		t.Fatalf("QueryBatchShards: %v", err)
	}
	after := s.ShardStats()
	if len(per) != len(before) || len(per) != 4 {
		t.Fatalf("per-shard stats for %d shards, want 4", len(per))
	}
	var sumReads int64
	for i := range per {
		dr := after[i].Reads - before[i].Reads
		dw := after[i].Writes - before[i].Writes
		if per[i].Stats.Reads != dr || per[i].Stats.Writes != dw {
			t.Fatalf("shard %d: batch counted %d/%d, store diff %d/%d",
				i, per[i].Stats.Reads, per[i].Stats.Writes, dr, dw)
		}
		var wr, ww int64
		var wq int
		for _, w := range per[i].Stats.PerWorker {
			wr += w.Reads
			ww += w.Writes
			wq += w.Queries
		}
		if wr != per[i].Stats.Reads || ww != per[i].Stats.Writes || wq != per[i].Queries {
			t.Fatalf("shard %d: per-worker sums %d/%d/%d != shard totals %d/%d/%d",
				i, wr, ww, wq, per[i].Stats.Reads, per[i].Stats.Writes, per[i].Queries)
		}
		sumReads += per[i].Stats.Reads
	}
	agg := foldShardStats(len(qs), per)
	if agg.Reads != sumReads || agg.Queries != len(qs) {
		t.Fatalf("aggregate fold %d reads/%d queries, want %d/%d", agg.Reads, agg.Queries, sumReads, len(qs))
	}
}

func TestShardedMetricsShardTags(t *testing.T) {
	pts := shardedPoints(400, 71)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 3, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	if _, _, err := s.Query(0, 0); err != nil {
		t.Fatalf("query: %v", err)
	}
	m := s.Metrics()
	if len(m.Ops) == 0 {
		t.Fatal("no metric series")
	}
	seen := map[int]bool{}
	for _, op := range m.Ops {
		if op.Shard < 0 {
			t.Fatalf("series %s/%s has Shard %d inside a sharded store", op.Kind, op.Name, op.Shard)
		}
		seen[op.Shard] = true
	}
	if len(seen) < 2 {
		t.Fatalf("series from %d shards, want >= 2", len(seen))
	}

	oracle, err := NewTwoSidedIndex(pts, SchemeSegmented, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()
	for _, op := range oracle.Metrics().Ops {
		if op.Shard != NoShard {
			t.Fatalf("single-store series tagged Shard %d, want NoShard", op.Shard)
		}
	}
}

func TestOpenShardedDispatch(t *testing.T) {
	pts := shardedPoints(300, 81)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 2, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	s.Close()

	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(dir): %v", err)
	}
	s2, ok := ix.(*Sharded)
	if !ok {
		t.Fatalf("Open(dir) = %T, want *Sharded", ix)
	}
	if s2.Kind() != "shard" {
		t.Fatalf("Kind = %q", s2.Kind())
	}
	if _, _, err := s2.Query(0, 0); err != nil {
		t.Fatalf("query via Open: %v", err)
	}
	s2.Close()

	// Opening the manifest file directly points at the directory API.
	_, err = Open(filepath.Join(dir, "shardmap.pc"))
	if err == nil || !strings.Contains(err.Error(), "OpenSharded") {
		t.Fatalf("Open(manifest file): err = %v, want OpenSharded hint", err)
	}
}

func TestShardedReload(t *testing.T) {
	pts := shardedPoints(300, 91)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 3, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	want, _, err := s.Query(math.MinInt64, math.MinInt64)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	for i := 0; i < s.NumShards(); i++ {
		if err := s.ReloadShard(i); err != nil {
			t.Fatalf("ReloadShard(%d): %v", i, err)
		}
	}
	got, _, err := s.Query(math.MinInt64, math.MinInt64)
	if err != nil {
		t.Fatalf("query after reload: %v", err)
	}
	if !samePoints(got, want) {
		t.Fatal("results changed across ReloadShard")
	}
	if err := s.ReloadShard(99); err == nil {
		t.Fatal("ReloadShard(99) succeeded")
	}
}

// TestShardedSplitRace is the online-rebalance acceptance battery: a
// squad of readers hammers the store while shards split underneath them.
// Zero wrong answers, zero blocked readers (progress is asserted around
// every split), and the post-split store — live and reopened — still
// matches the oracle.
func TestShardedSplitRace(t *testing.T) {
	pts := shardedPoints(600, 101)
	dir := t.TempDir()
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: 2, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	oracle, err := NewTwoSidedIndex(pts, SchemeSegmented, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()

	qs := twoSidedQueries(32, 102)
	want := make([][]Point, len(qs))
	for i, q := range qs {
		w, _, err := oracle.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sortPoints(w)
		want[i] = w
	}

	stop := make(chan struct{})
	var wrong, reads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(qs))
				got, _, err := s.Query(qs[i].A, qs[i].B)
				if err != nil {
					t.Errorf("reader: Query(%d,%d): %v", qs[i].A, qs[i].B, err)
					wrong.Add(1)
					return
				}
				if !samePoints(got, want[i]) {
					wrong.Add(1)
				}
				reads.Add(1)
			}
		}(int64(200 + w))
	}

	waitProgress := func() {
		r0 := reads.Load()
		deadline := time.Now().Add(10 * time.Second)
		for reads.Load() == r0 {
			if time.Now().After(deadline) {
				t.Fatal("readers made no progress: blocked")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for round := 0; round < 3; round++ {
		// Split the biggest shard.
		infos := s.Shards()
		target, best := 0, -1
		for _, in := range infos {
			if in.Len > best {
				target, best = in.Shard, in.Len
			}
		}
		if err := s.Split(target); err != nil {
			t.Fatalf("Split(%d): %v", target, err)
		}
		waitProgress()
	}
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d wrong answers during splits", n)
	}
	if reads.Load() == 0 {
		t.Fatal("no reads completed")
	}
	if s.NumShards() != 5 {
		t.Fatalf("NumShards after 3 splits = %d, want 5", s.NumShards())
	}
	if s.Epoch() != 4 {
		t.Fatalf("Epoch = %d, want 4", s.Epoch())
	}
	if s.Len() != len(pts) {
		t.Fatalf("Len after splits = %d, want %d", s.Len(), len(pts))
	}

	// The split map persisted: a fresh open answers identically, and the
	// retired shard files are gone.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := OpenSharded(dir, shardedOpenOpts())
	if err != nil {
		t.Fatalf("reopen after splits: %v", err)
	}
	defer s2.Close()
	if s2.NumShards() != 5 {
		t.Fatalf("reopened NumShards = %d, want 5", s2.NumShards())
	}
	for i, q := range qs {
		got, _, err := s2.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("reopened Query: %v", err)
		}
		if !samePoints(got, want[i]) {
			t.Fatalf("reopened query %d mismatch", i)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != s2.NumShards()+1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want %d shard files + manifest", names, s2.NumShards())
	}
}

func TestShardedSplitUnsupportedKinds(t *testing.T) {
	ivs := shardedIntervals(200, 111)
	dir := t.TempDir()
	s, err := BuildShardedIntervals(dir, "segment", ivs, ShardPlan{Shards: 2}, shardedBuildOpts())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	if err := s.Split(0); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("Split on segment shards: err = %v, want unsupported", err)
	}
}

func TestShardedSplitLSM(t *testing.T) {
	pts := shardedPoints(260, 121)
	dir := t.TempDir()
	opts := &Options{PageSize: 256, MemtableEntries: 16}
	s, err := BuildShardedPoints(dir, "lsm", pts, ShardPlan{Shards: 2}, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer s.Close()
	oracle, err := BuildDynamic("twosided", pts, &Options{MemtableEntries: 16})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer oracle.Close()
	// Leave an unflushed memtable tail so the split must capture live,
	// not just sealed, records.
	rng := rand.New(rand.NewSource(122))
	for i := 0; i < 7; i++ {
		p := Point{X: rng.Int63n(2000), Y: rng.Int63n(2000), ID: uint64(20_000 + i)}
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if _, err := oracle.Insert(p); err != nil {
			t.Fatalf("oracle insert: %v", err)
		}
	}
	if err := s.Split(0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := s.Split(1); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	for _, q := range twoSidedQueries(32, 123) {
		got, _, err := s.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		want, _, err := oracle.Query(q.A, q.B)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sortPoints(want)
		if !samePoints(got, want) {
			t.Fatalf("post-split Query(%d,%d) mismatch", q.A, q.B)
		}
	}
}
