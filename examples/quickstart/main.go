// Quickstart: build a static 2-sided index over random points, run a few
// queries, and inspect the I/O accounting that makes the paper's bounds
// visible.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathcache"
)

func main() {
	const n = 200_000
	rng := rand.New(rand.NewSource(7))

	// A relation with two indexed attributes, e.g. (salary, age).
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{
			X:  rng.Int63n(200_000), // salary
			Y:  rng.Int63n(60) + 20, // age
			ID: uint64(i + 1),       // tuple id
		}
	}

	// The two-level scheme of Theorem 4.3: optimal O(log_B n + t/B) queries
	// in O((n/B)·log log B) pages.
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeTwoLevel, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d points in %d pages (B=%d records/page)\n\n",
		ix.Len(), ix.Pages(), pathcache.B(pathcache.DefaultPageSize))

	// "Employees with salary >= 150k and age >= 60."
	for _, q := range []struct{ salary, age int64 }{
		{150_000, 60},
		{190_000, 30},
		{100_000, 75},
	} {
		ix.ResetStats()
		res, prof, err := ix.Query(q.salary, q.age)
		if err != nil {
			log.Fatal(err)
		}
		st := ix.Stats()
		fmt.Printf("salary >= %-7d age >= %-3d -> %5d tuples, %3d page reads "+
			"(%d path, %d list; %d useful, %d wasteful)\n",
			q.salary, q.age, len(res), st.Reads,
			prof.PathPages, prof.ListPages, prof.UsefulIOs, prof.WastefulIOs)
	}

	fmt.Println("\nThe same queries through the uncached IKO baseline:")
	base, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeIKO, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []struct{ salary, age int64 }{
		{150_000, 60},
		{190_000, 30},
		{100_000, 75},
	} {
		base.ResetStats()
		res, _, err := base.Query(q.salary, q.age)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("salary >= %-7d age >= %-3d -> %5d tuples, %3d page reads\n",
			q.salary, q.age, len(res), base.Stats().Reads)
	}
	fmt.Printf("\nstorage: two-level %d pages vs IKO %d pages — the paper's "+
		"space-for-time trade.\n", ix.Pages(), base.Pages())
}
