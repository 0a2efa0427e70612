package pathcache

import (
	"sync"
	"testing"

	"pathcache/internal/workload"
)

// Static indexes are safe for concurrent readers: queries share only the
// page store (mutex-guarded) and immutable metadata. Run with -race.
func TestConcurrentStaticQueries(t *testing.T) {
	pts := uniformPoints(10_000, 100_000, 801)
	ivs := uniformIntervals(10_000, 100_000, 10_000, 803)

	two, err := NewTwoSidedIndex(pts, SchemeTwoLevel, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewThreeSidedIndex(pts, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmentIndex(ivs, true, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	qs2 := workload.TwoSidedQueries(32, 100_000, 0.01, 805)
	qs3 := workload.ThreeSidedQueries(32, 100_000, 0.2, 0.01, 807)
	stabs := workload.StabQueries(32, 110_000, 809)

	// Reference answers, single-threaded.
	ref2 := make([]int, len(qs2))
	for i, q := range qs2 {
		r, _, err := two.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		ref2[i] = len(r)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				q := qs2[(g+i)%len(qs2)]
				r, _, err := two.Query(q.A, q.B)
				if err != nil {
					errs <- err
					return
				}
				if len(r) != ref2[(g+i)%len(qs2)] {
					t.Errorf("goroutine %d: result drift on query %d", g, i)
					return
				}
				q3 := qs3[(g+i)%len(qs3)]
				if _, _, err := three.QueryThreeSided(q3.A1, q3.A2, q3.B); err != nil {
					errs <- err
					return
				}
				if _, _, err := seg.Stab(stabs[(g+i)%len(stabs)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The buffer pool is shared mutable state; concurrent readers through one
// pool must stay correct (run with -race).
func TestConcurrentQueriesThroughBufferPool(t *testing.T) {
	pts := uniformPoints(10_000, 100_000, 811)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.TwoSidedQueries(16, 100_000, 0.01, 813)
	ref := make([]int, len(qs))
	for i, q := range qs {
		r, _, err := ix.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = len(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				k := (g*7 + i) % len(qs)
				r, _, err := ix.Query(qs[k].A, qs[k].B)
				if err != nil {
					t.Errorf("query error: %v", err)
					return
				}
				if len(r) != ref[k] {
					t.Errorf("pool drift: got %d want %d", len(r), ref[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
