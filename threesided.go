package pathcache

import (
	"fmt"

	"pathcache/internal/engine"
	"pathcache/internal/ext3side"
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
	op := ix.startOp(engine.KindName(kindThreeSide), "query")
	pts, st, err := ix.idx.WithPager(op.pager()).Query(a1, a2, b)
	if err != nil {
		op.abort()
		return nil, IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	prof, err := op.finish(len(pts), ix.idx.Len(), boundFor(kindThreeSide))
	prof.PathPages = st.PathPages
	prof.ListPages = st.ListPages
	prof.UsefulIOs = st.UsefulIOs
	prof.WastefulIOs = st.WastefulIOs
	if err != nil {
		return nil, prof, err
	}
	return fromRecPoints(pts), prof, nil
}

// Len reports the number of indexed points.
func (ix *ThreeSidedIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *ThreeSidedIndex) Kind() string { return engine.KindName(kindThreeSide) }

// Shape reports ShapeThreeSided.
func (ix *ThreeSidedIndex) Shape() Shape { return shapeOf(kindThreeSide, 0) }

// Pages reports the storage footprint in pages.
func (ix *ThreeSidedIndex) Pages() int { return ix.idx.TotalPages() }
