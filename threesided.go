package pathcache

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/ext3side"
	"pathcache/internal/skeletal"
)

// ThreeSidedIndex is a static index answering 3-sided queries
// {a1 <= x <= a2, y >= b} — the primitive Theorems 3.3/4.5 address and the
// paper's motivation for indexing class hierarchies in object-oriented
// databases.
type ThreeSidedIndex struct {
	core
	idx *ext3side.Tree
}

// NewThreeSidedIndex builds a static 3-sided index over pts. The input
// slice is not retained.
func NewThreeSidedIndex(pts []Point, opts *Options) (*ThreeSidedIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	var idx *ext3side.Tree
	err = c.recordBuild(engine.KindName(kindThreeSide), func() (int, error) {
		var err error
		if idx, err = ext3side.Build(c.be.Pager(), toRecPoints(pts)); err != nil {
			return 0, fmt.Errorf("pathcache: %w", err)
		}
		return idx.Len(), c.be.SaveMeta(kindThreeSide, idx.Meta().Encode())
	})
	if err != nil {
		return nil, err
	}
	return &ThreeSidedIndex{core: c, idx: idx}, nil
}

// QueryThreeSided reports every point with a1 <= X <= a2 and Y >= b, plus
// the query's I/O profile: the exact page transfers attributed to this one
// query by an op-scoped counter.
func (ix *ThreeSidedIndex) QueryThreeSided(a1, a2, b int64) ([]Point, IOProfile, error) {
	return ix.appendQueryThreeSided(nil, a1, a2, b)
}

func (ix *ThreeSidedIndex) appendQueryThreeSided(dst []Point, a1, a2, b int64) ([]Point, IOProfile, error) {
	return serial(ix.core, ix.op(), dst, ThreeSidedQuery{a1, a2, b}, ix.queryOn)
}

func (ix *ThreeSidedIndex) op() opSpec { return queryOp(kindThreeSide, "query", ix.idx.Len()) }

// queryOn answers one 3-sided query through p.
func (ix *ThreeSidedIndex) queryOn(p disk.Pager, dst []Point, q ThreeSidedQuery) ([]Point, skeletal.QueryStats, error) {
	pts, st, err := ix.idx.QueryOn(p, q.A1, q.A2, q.B)
	if err != nil {
		return dst, st, err
	}
	return appendRecPoints(dst, pts), st, nil
}

// Len reports the number of indexed points.
func (ix *ThreeSidedIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *ThreeSidedIndex) Kind() string { return engine.KindName(kindThreeSide) }

// Shape reports ShapeThreeSided.
func (ix *ThreeSidedIndex) Shape() Shape { return shapeOf(kindThreeSide, 0) }

// Pages reports the storage footprint in pages.
func (ix *ThreeSidedIndex) Pages() int { return ix.idx.TotalPages() }
