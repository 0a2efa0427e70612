// Interval join example: report every overlapping pair between two interval
// relations — the "interval intersection" workload the paper's abstract
// names as an application of 2-sided searching.
//
// Intervals [a1,a2] and [b1,b2] overlap iff a1 <= b2 and b1 <= a2. The join
// indexes relation R once and, for each s in S, asks one stabbing query for
// the intervals of R containing s.Lo plus one 1-D range query (via the
// B+-tree on R's left endpoints) for the intervals of R starting inside s —
// together exactly the overlapping pairs, each found once.
//
//	go run ./examples/intervaljoin
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathcache"
)

func main() {
	const (
		nR      = 40_000
		nS      = 1_000
		horizon = 1_000_000
	)
	rng := rand.New(rand.NewSource(23))
	gen := func(n int, idBase uint64) []pathcache.Interval {
		out := make([]pathcache.Interval, n)
		for i := range out {
			lo := rng.Int63n(horizon)
			out[i] = pathcache.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(2_000), ID: idBase + uint64(i)}
		}
		return out
	}
	R := gen(nR, 1)
	S := gen(nS, 1_000_000)

	// Index R twice: a stabbing index (2-sided under the diagonal-corner
	// reduction) and a B+-tree on left endpoints.
	stab, err := pathcache.NewStabbingIndex(R, pathcache.SchemeTwoLevel, nil)
	if err != nil {
		log.Fatal(err)
	}
	starts, err := pathcache.NewRangeIndex(nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range R {
		if err := starts.Insert(r.Lo, r.ID); err != nil {
			log.Fatal(err)
		}
	}

	stab.ResetStats()
	starts.ResetStats()
	pairs := 0
	for _, s := range S {
		// R-intervals that contain s.Lo ...
		hits, _, err := stab.Stab(s.Lo)
		if err != nil {
			log.Fatal(err)
		}
		pairs += len(hits)
		// ... plus R-intervals that start strictly inside (s.Lo, s.Hi].
		err = starts.Range(s.Lo+1, s.Hi, func(int64, uint64) bool {
			pairs++
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	ios := stab.Stats().Reads + starts.Stats().Reads

	// Verify against a brute-force join on a sample.
	brute := 0
	for _, s := range S {
		for _, r := range R {
			if r.Lo <= s.Hi && s.Lo <= r.Hi {
				brute++
			}
		}
	}
	fmt.Printf("joined |R|=%d with |S|=%d: %d overlapping pairs in %d page reads (%.1f per probe)\n",
		nR, nS, pairs, ios, float64(ios)/float64(nS))
	fmt.Printf("brute-force check: %d pairs — %v\n", brute, brute == pairs)
	if brute != pairs {
		log.Fatal("join result mismatch")
	}
}
