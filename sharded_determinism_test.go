package pathcache

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"pathcache/internal/workload"
)

// Merge-determinism property: a sharded batch must return byte-identical
// results to a single store over the same records — same points, same
// order within every answer — for every worker count and every seed. The
// scatter-gather merge (shard-order concatenation + canonical sort) is
// deterministic by construction; this battery pins that construction.
//
// Reproduce one failure with:
//
//	PC_SHARDDET_SEED=<seed> go test -run TestShardedMergeDeterminism

// shardDetSeeds returns the workload seeds: the fixed list, or the single
// seed the PC_SHARDDET_SEED environment variable requests.
func shardDetSeeds(t *testing.T) []int64 {
	if s := os.Getenv("PC_SHARDDET_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PC_SHARDDET_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{3, 11, 29}
}

func shardDetRepro(what string, seed int64, workers int, qi int, detail string) string {
	return fmt.Sprintf(
		"sharded %s diverges from the single-store oracle at seed=%d workers=%d query=%d: %s\n"+
			"reproduce: PC_SHARDDET_SEED=%d go test -run TestShardedMergeDeterminism",
		what, seed, workers, qi, detail, seed)
}

func TestShardedMergeDeterminism(t *testing.T) {
	for _, seed := range shardDetSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pts := fromRecPoints(workload.ZipfPoints(700, 4000, 1.2, seed))
			nshards := 2 + rng.Intn(5)
			dir := t.TempDir()
			s, err := BuildShardedPoints(dir, "twosided", pts, ShardPlan{Shards: nshards, Scheme: SchemeSegmented}, shardedBuildOpts())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer s.Close()
			oracle, err := NewTwoSidedIndex(pts, SchemeSegmented, nil)
			if err != nil {
				t.Fatalf("oracle: %v", err)
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
				w, _, err := oracle.Query(q.A, q.B)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				sortPoints(w)
				want[i] = w
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for run := 0; run < 3; run++ {
					got, st, err := s.QueryBatch(qs, workers)
					if err != nil {
						t.Fatalf("QueryBatch(workers=%d): %v", workers, err)
					}
					if st.Queries != len(qs) {
						t.Fatalf("batch Queries = %d, want %d", st.Queries, len(qs))
					}
					for qi := range qs {
						if len(got[qi]) != len(want[qi]) {
							t.Fatal(shardDetRepro("QueryBatch", seed, workers, qi,
								fmt.Sprintf("%d results, want %d", len(got[qi]), len(want[qi]))))
						}
						for j := range want[qi] {
							if got[qi][j] != want[qi][j] {
								t.Fatal(shardDetRepro("QueryBatch", seed, workers, qi,
									fmt.Sprintf("result %d is %+v, want %+v", j, got[qi][j], want[qi][j])))
							}
						}
					}
				}
			}
		})
	}
}
