// Persistence example: build an index once onto a real file, close the
// process's state, and reopen it instantly — the pages and a one-page
// header live in the file, so no rebuild happens.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pathcache"
)

func main() {
	dir, err := os.MkdirTemp("", "pathcache-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "events.pc")

	// Build: 300k events (timestamp, severity) onto the file.
	rng := rand.New(rand.NewSource(29))
	const n = 300_000
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{
			X:  rng.Int63n(1 << 30), // timestamp
			Y:  rng.Int63n(100),     // severity
			ID: uint64(i + 1),
		}
	}
	start := time.Now()
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented,
		&pathcache.Options{Path: path})
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	want, _, err := ix.Query(1<<29, 90)
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d events into %s (%.1f MiB) in %v\n",
		n, filepath.Base(path), float64(info.Size())/(1<<20), buildTime.Round(time.Millisecond))

	// Reopen: no rebuild — the header page restores the index.
	start = time.Now()
	re, err := pathcache.OpenTwoSidedIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	openTime := time.Since(start)

	re.ResetStats()
	got, _, err := re.Query(1<<29, 90)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened in %v (%.0fx faster than building)\n",
		openTime.Round(time.Microsecond), float64(buildTime)/float64(openTime))
	fmt.Printf("query after reopen: %d recent high-severity events in %d page reads\n",
		len(got), re.Stats().Reads)
	if len(got) != len(want) {
		log.Fatalf("reopened index disagrees: %d vs %d", len(got), len(want))
	}
	fmt.Println("reopened results match the original index")
}
