package dynpst

import (
	"math/rand"
	"testing"

	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

// Rapid delete/re-insert cycles of the same points exercise the
// newest-op-wins merge logic across buffer generations.
func TestReinsertCycles(t *testing.T) {
	tr, _ := newTree(t, 512)
	pts := workload.UniformPoints(500, 10_000, 501)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(503))
	live := map[record.Point]bool{}
	for _, p := range pts {
		live[p] = true
	}
	for cycle := 0; cycle < 6; cycle++ {
		// Delete a random half, query, re-insert them, query again.
		var victims []record.Point
		for p := range live {
			if rng.Intn(2) == 0 {
				victims = append(victims, p)
			}
		}
		for _, p := range victims {
			if err := tr.Delete(p); err != nil {
				t.Fatal(err)
			}
			delete(live, p)
		}
		q := workload.TwoSidedQueries(1, 10_000, 0.2, int64(cycle))[0]
		check := func() {
			got, _, err := tr.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			ls := make([]record.Point, 0, len(live))
			for p := range live {
				ls = append(ls, p)
			}
			want := inmem.TwoSided(ls, q.A, q.B)
			if !inmem.SamePoints(got, want) {
				t.Fatalf("cycle %d: got %d want %d (live %d)", cycle, len(got), len(want), len(live))
			}
		}
		check()
		for _, p := range victims {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
			live[p] = true
		}
		check()
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
}

// A tree fed through many full churns (insert all, delete all, repeat) must
// not leak pages or lose correctness.
func TestChurnStability(t *testing.T) {
	tr, s := newTree(t, 512)
	pts := workload.UniformPoints(800, 10_000, 505)
	var peak int
	for round := 0; round < 4; round++ {
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if p := s.NumPages(); p > peak {
			peak = p
		}
		got, _, err := tr.Query(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("round %d: query found %d of %d", round, len(got), len(pts))
		}
		for _, p := range pts {
			if err := tr.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
	}
	// Page usage must not grow monotonically across churns.
	if final := s.NumPages(); final > peak {
		t.Fatalf("pages grew beyond peak: final=%d peak=%d", final, peak)
	}
}
