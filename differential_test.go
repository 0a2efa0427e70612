package pathcache

import (
	"fmt"
	"math/rand"
	"testing"
)

// Randomized differential tests: drive the dynamic external structures
// through long seeded insert/delete/query interleavings and compare every
// query against a flat in-memory model. Runs are deterministic per seed and
// race-clean (each subtest owns its index), so `go test -race` exercises the
// sharded buffer-pool paths underneath as well.

// diffModel is the flat reference: a multiset of points, queried through
// the brute-force oracle.
type diffModel struct {
	pts []Point
}

func (m *diffModel) insert(p Point) { m.pts = append(m.pts, p) }

func (m *diffModel) delete(p Point) bool {
	for i := range m.pts {
		if m.pts[i] == p {
			m.pts[i] = m.pts[len(m.pts)-1]
			m.pts = m.pts[:len(m.pts)-1]
			return true
		}
	}
	return false
}

// dynamicIndex is what the differential drives: DynamicIndex answering
// 2-sided queries or DynamicThreeSidedIndex answering 3-sided ones, behind
// query.
type dynamicIndex interface {
	BulkLoad(pts []Point) error
	Insert(p Point) error
	Delete(p Point) error
	Len() int
}

// runDynamicDifferential bulk-loads initial points into a fresh dynamic
// index of shape s, then drives ops seeded inserts, deletes and queries
// against it and the model.
func runDynamicDifferential(s Shape, initial, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	opts := &Options{PageSize: 512, BufferPoolPages: 8}
	var ix dynamicIndex
	var query func(q [4]int64) ([]Point, error)
	if s == ShapeTwoSided {
		x, err := NewDynamicIndex(opts)
		if err != nil {
			return err
		}
		ix, query = x, func(q [4]int64) ([]Point, error) { return x.Query(q[0], q[1]) }
	} else {
		x, err := NewDynamicThreeSidedIndex(opts)
		if err != nil {
			return err
		}
		ix, query = x, func(q [4]int64) ([]Point, error) { return x.Query(q[0], q[1], q[2]) }
	}
	model := &diffModel{}
	nextID := uint64(1)
	randPoint := func() Point {
		p := Point{X: rng.Int63n(500), Y: rng.Int63n(500), ID: nextID}
		nextID++
		return p
	}

	// Start from a bulk load so compaction has standing structure.
	var init []Point
	for i := 0; i < initial; i++ {
		p := randPoint()
		init = append(init, p)
		model.insert(p)
	}
	if err := ix.BulkLoad(init); err != nil {
		return err
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert
			p := randPoint()
			if err := ix.Insert(p); err != nil {
				return fmt.Errorf("op %d insert: %w", op, err)
			}
			model.insert(p)
		case r < 7 && len(model.pts) > 0: // delete a live point
			p := model.pts[rng.Intn(len(model.pts))]
			if err := ix.Delete(p); err != nil {
				return fmt.Errorf("op %d delete: %w", op, err)
			}
			model.delete(p)
		default: // query
			q := bounds(s, drawQueries(rng, 1, arity(s), 500)[0])
			got, err := query(q)
			if err != nil {
				return fmt.Errorf("op %d %v query %v: %w", op, s, q, err)
			}
			if want := brute(s, model.pts, q); !sameSet(got, want) {
				return fmt.Errorf("op %d %v query %v: diverged from model (%d vs %d results)", op, s, q, len(got), len(want))
			}
		}
		if ix.Len() != len(model.pts) {
			return fmt.Errorf("op %d: Len %d, model %d", op, ix.Len(), len(model.pts))
		}
	}
	return nil
}

func dynamicDifferential(t *testing.T, s Shape, initial, ops int, seeds ...int64) {
	for _, seed := range propSeeds(t, seeds...) {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			run := func(ops int) error { return runDynamicDifferential(s, initial, ops, seed) }
			if err := run(ops); err != nil {
				t.Fatal(shrink(t, seed, "ops", ops, 20, run, err))
			}
		})
	}
}

func TestDynamicIndexDifferential(t *testing.T) {
	dynamicDifferential(t, ShapeTwoSided, 64, 600, 1, 2, 3)
}

func TestDynamicThreeSidedIndexDifferential(t *testing.T) {
	dynamicDifferential(t, ShapeThreeSided, 48, 500, 11, 12)
}
