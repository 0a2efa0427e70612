package pathcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathcache/internal/workload"
)

// Merge-determinism property: a sharded batch must return byte-identical
// results to a single store over the same records — same points, same
// order within every answer — for every worker count and every seed. The
// scatter-gather merge (shard-order concatenation + canonical sort) is
// deterministic by construction; this battery pins that construction.

func TestShardedMergeDeterminism(t *testing.T) {
	for _, seed := range propSeeds(t, 3, 11, 29) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := runShardedDeterminism(t.TempDir(), seed); err != nil {
				t.Fatalf("sharded QueryBatch diverges from the single-store oracle: %v\n%s", err, reproduce(t, seed))
			}
		})
	}
}

func runShardedDeterminism(dir string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pts := fromRecPoints(workload.ZipfPoints(700, 4000, 1.2, seed))
	nshards := 2 + rng.Intn(5)
	s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: nshards, Scheme: SchemeSegmented}, shardedBuildOpts())
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	defer s.Close()
	oracle, err := NewTwoSidedIndex(pts, SchemeSegmented, nil)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	defer oracle.Close()

	var qs []TwoSidedQuery
	for i := 0; i < 40; i++ {
		qs = append(qs, TwoSidedQuery{A: rng.Int63n(4400) - 200, B: rng.Int63n(4400) - 200})
	}
	// The oracle answer set, canonicalized once: every (workers, run)
	// combination must reproduce it byte for byte.
	want := make([][]Point, len(qs))
	for i, q := range qs {
		if want[i], _, err = oracle.Query(q.A, q.B); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		slices.SortFunc(want[i], cmpRec[Point])
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for run := 0; run < 3; run++ {
			got, st, err := s.QueryBatch(qs, workers)
			if err != nil {
				return fmt.Errorf("QueryBatch(workers=%d): %w", workers, err)
			}
			if st.Queries != len(qs) {
				return fmt.Errorf("batch Queries = %d, want %d", st.Queries, len(qs))
			}
			for qi := range qs {
				if !slices.Equal(got[qi], want[qi]) {
					return fmt.Errorf("workers=%d query=%d:\ngot  %v\nwant %v", workers, qi, got[qi], want[qi])
				}
			}
		}
	}
	return nil
}
