package pathcache

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/logmethod"
	"pathcache/internal/record"
)

// Three-way differential suite for the persisted write tier: the same
// seeded stream of Insert/Delete/Query/Stab ops drives the file-backed
// LSMIndex, the in-memory logarithmic-method baseline (internal/logmethod —
// the Section 5 folklore structure the tier is the persistent rendition
// of), and a flat oracle. Every query must agree three ways; every ~150 ops
// the LSM index is closed WITHOUT a flush and reopened from its file, so
// recovery replays a non-empty WAL mid-stream. A background compaction is
// raced against the tail of each stream, and the whole suite runs under
// -race in CI.
//
// Failures shrink by halving the op count while the divergence persists
// (runs are deterministic in (ops, seed)).

const lsmDiffOps = 600

// runLSMDifferential drives one deterministic stream of ops against all
// three structures. base selects the query shape: "twosided" compares
// 2-sided queries on points, "stabbing" compares stabbing queries on
// diagonal-corner encoded intervals (the logmethod mirror stabs via the
// same reduction: Query(-q, q)). dir receives the index file; every run
// creates its own so shrink reruns start clean.
func runLSMDifferential(dir, base string, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(dir, fmt.Sprintf("diff-%s-%d-%d.pc", base, ops, seed))

	newPoint := func(id uint64) Point {
		if base == "stabbing" {
			lo := rng.Int63n(500)
			return IntervalToDynamicPoint(Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(150), ID: id})
		}
		return Point{X: rng.Int63n(500), Y: rng.Int63n(500), ID: id}
	}

	model := &diffModel{}
	nextID := uint64(1)
	var init []Point
	for i := 0; i < 48; i++ {
		p := newPoint(nextID)
		nextID++
		init = append(init, p)
		model.insert(p)
	}

	ix, err := BuildDynamic(base, init, &Options{
		PageSize: 512, BufferPoolPages: 8, Path: path, MemtableEntries: 32,
	})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			ix.Close()
		}
	}()

	lm, err := logmethod.New(disk.MustStore(512))
	if err != nil {
		return fmt.Errorf("logmethod: %w", err)
	}
	for _, p := range init {
		if err := lm.Insert(record.Point(p)); err != nil {
			return fmt.Errorf("logmethod seed insert: %w", err)
		}
	}

	// Records are compared in ask's encoding: as they are on a 2-sided
	// base, as (Lo, Hi, ID) on a stab base.
	shape := ix.Shape()
	decode := func(p Point) Point { return p }
	if shape == ShapeStab {
		decode = func(p Point) Point { return recPoint(DynamicPointToInterval(p)) }
	}
	compare := func(op int) error {
		// A stab at q is the 2-sided query (-q, q) on the logmethod
		// mirror's diagonal-corner points.
		var q [4]int64
		var a, b int64
		if shape == ShapeStab {
			q[0] = rng.Int63n(700)
			a, b = -q[0], q[0]
		} else {
			q[0], q[1] = rng.Int63n(500), rng.Int63n(500)
			a, b = q[0], q[1]
		}
		want := brute(shape, mapSlice(model.pts, decode), q)
		got, _, err := ask(ix, shape, [][4]int64{q}, 0)
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if !sameSet(got[0], want) {
			return fmt.Errorf("op %d %v query %v: lsm diverged from oracle (%d vs %d results)", op, shape, q, len(got[0]), len(want))
		}
		ref, err := lm.Query(a, b)
		if err != nil {
			return fmt.Errorf("op %d logmethod query(%d,%d): %w", op, a, b, err)
		}
		refPts := mapSlice(ref, func(p record.Point) Point { return decode(Point(p)) })
		if !sameSet(refPts, want) {
			return fmt.Errorf("op %d %v query %v: logmethod diverged from oracle (%d vs %d results)", op, shape, q, len(refPts), len(want))
		}
		return nil
	}

	var compacting <-chan error
	drain := func() error {
		if compacting == nil {
			return nil
		}
		err := <-compacting
		compacting = nil
		if err != nil {
			return fmt.Errorf("background compaction: %w", err)
		}
		return nil
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // insert
			p := newPoint(nextID)
			nextID++
			if _, err := ix.Insert(p); err != nil {
				return fmt.Errorf("op %d insert: %w", op, err)
			}
			if err := lm.Insert(record.Point(p)); err != nil {
				return fmt.Errorf("op %d logmethod insert: %w", op, err)
			}
			model.insert(p)
		case r < 6 && len(model.pts) > 0: // delete a live record
			p := model.pts[rng.Intn(len(model.pts))]
			if _, err := ix.Delete(p); err != nil {
				return fmt.Errorf("op %d delete: %w", op, err)
			}
			if err := lm.Delete(record.Point(p)); err != nil {
				return fmt.Errorf("op %d logmethod delete: %w", op, err)
			}
			model.delete(p)
		case r < 7: // exact-record probe against the oracle
			var p Point
			if len(model.pts) > 0 && rng.Intn(2) == 0 {
				p = model.pts[rng.Intn(len(model.pts))]
			} else {
				p = newPoint(nextID + 1_000_000) // never inserted
			}
			got, _, err := ix.Has(p)
			if err != nil {
				return fmt.Errorf("op %d has: %w", op, err)
			}
			want := false
			for _, q := range model.pts {
				if q == p {
					want = true
					break
				}
			}
			if got != want {
				return fmt.Errorf("op %d has %v = %v, want %v", op, p, got, want)
			}
		default:
			if err := compare(op); err != nil {
				return err
			}
		}
		if ix.Len() != len(model.pts) {
			return fmt.Errorf("op %d: lsm Len %d, oracle %d", op, ix.Len(), len(model.pts))
		}
		if lm.Len() != len(model.pts) {
			return fmt.Errorf("op %d: logmethod Len %d, oracle %d", op, lm.Len(), len(model.pts))
		}
		// Race a compaction on its own goroutine against the stream's
		// second half.
		if op == ops/2 && compacting == nil {
			done := make(chan error, 1)
			go func(ix *LSMIndex) { done <- ix.Compact() }(ix)
			compacting = done
		}
		// Close without flushing and reopen: recovery must replay the WAL
		// tail and land on exactly the oracle's state.
		if op%150 == 149 {
			if err := drain(); err != nil {
				return err
			}
			if err := ix.Close(); err != nil {
				return fmt.Errorf("op %d close: %w", op, err)
			}
			closed = true
			ix, err = OpenDynamic(path)
			if err != nil {
				return fmt.Errorf("op %d reopen: %w", op, err)
			}
			closed = false
			if ix.Len() != len(model.pts) {
				return fmt.Errorf("op %d: reopened Len %d, oracle %d", op, ix.Len(), len(model.pts))
			}
		}
	}
	if err := drain(); err != nil {
		return err
	}
	if err := compare(ops); err != nil {
		return err
	}
	closed = true
	return ix.Close()
}

func TestLSMDifferential(t *testing.T) {
	for _, base := range []string{"twosided", "stabbing"} {
		t.Run(base, func(t *testing.T) {
			for _, seed := range propSeeds(t, 101, 102, 103) {
				t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
					t.Parallel()
					run := func(ops int) error { return runLSMDifferential(t.TempDir(), base, ops, seed) }
					if err := run(lsmDiffOps); err != nil {
						t.Fatalf("lsm/%s diverges from its references: %s", base, shrink(t, seed, "ops", lsmDiffOps, 20, run, err))
					}
				})
			}
		})
	}
}
