package pathcache

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// TestEndToEndScenario drives the whole public API as one application
// would: a temporal database is loaded in bulk, indexed three ways, updated
// live, persisted, reopened, and queried concurrently — with every answer
// cross-checked between structures and against brute force.
func TestEndToEndScenario(t *testing.T) {
	const (
		nContracts = 8_000
		horizon    = 1 << 20
	)
	rng := rand.New(rand.NewSource(2001))
	contracts := make([]Interval, nContracts)
	for i := range contracts {
		lo := rng.Int63n(horizon)
		contracts[i] = Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(horizon/16), ID: uint64(i + 1)}
	}

	// Phase 1: bulk-load the dynamic stabbing index; mirror in a static one.
	dyn, err := NewDynamicStabbingIndex(&Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contracts {
		if err := dyn.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	static, err := NewStabbingIndex(contracts, SchemeTwoLevel, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmentIndex(contracts, true, &Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []int64{horizon / 7, horizon / 2, horizon - 3} {
		a, err := dyn.Stab(T)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := static.Stab(T)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := seg.Stab(T)
		if err != nil {
			t.Fatal(err)
		}
		want := brute(ShapeStab, contracts, [4]int64{T})
		if !sameSet(a, want) || !sameSet(b, want) || !sameSet(c, want) {
			t.Fatalf("phase 1 disagreement at T=%d: dyn=%d static=%d seg=%d brute=%d",
				T, len(a), len(b), len(c), len(want))
		}
	}

	// Phase 2: live churn on the dynamic index.
	live := map[Interval]bool{}
	for _, c := range contracts {
		live[c] = true
	}
	nextID := uint64(nContracts + 1)
	for step := 0; step < 3_000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			lo := rng.Int63n(horizon)
			iv := Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(horizon/16), ID: nextID}
			nextID++
			if err := dyn.Insert(iv); err != nil {
				t.Fatal(err)
			}
			live[iv] = true
		} else {
			var victim Interval
			k := rng.Intn(len(live))
			for iv := range live {
				if k == 0 {
					victim = iv
					break
				}
				k--
			}
			if err := dyn.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(live, victim)
		}
	}
	liveSlice := make([]Interval, 0, len(live))
	for iv := range live {
		liveSlice = append(liveSlice, iv)
	}
	for _, T := range []int64{horizon / 5, horizon / 2} {
		got, err := dyn.Stab(T)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(ShapeStab, liveSlice, [4]int64{T}); !sameSet(got, want) {
			t.Fatalf("phase 2 at T=%d: got %d want %d", T, len(got), len(want))
		}
	}

	// Phase 3: snapshot the churned state into a persistent file, reopen it,
	// and query concurrently.
	path := filepath.Join(t.TempDir(), "snapshot.pc")
	snap, err := NewStabbingIndex(liveSlice, SchemeSegmented, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStabbingIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(3000 + g)))
			for i := 0; i < 20; i++ {
				T := grng.Int63n(horizon)
				got, _, err := re.Stab(T)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if want := brute(ShapeStab, liveSlice, [4]int64{T}); len(got) != len(want) {
					t.Errorf("goroutine %d at T=%d: got %d want %d", g, T, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
