package pathcache

import (
	"fmt"

	"pathcache/internal/engine"
	"pathcache/internal/extwindow"
)

// WindowIndex answers general 4-sided window queries
// {x1 <= X <= x2, y1 <= Y <= y2} — the outermost query class of Figure 1,
// which the paper leaves open. It is this repository's extension: an
// external range tree with per-node page directories, answering queries in
// O(log(n/B) + t/B) I/Os with O((n/B)·log(n/B)) pages (see
// internal/extwindow for the construction).
type WindowIndex struct {
	core
	idx *extwindow.Tree
}

// NewWindowIndex builds a static window index over pts. The input slice is
// not retained. With Options.Path set the index persists; reopen it with
// OpenWindowIndex or Open.
func NewWindowIndex(pts []Point, opts *Options) (*WindowIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	idx, err := extwindow.BuildLayout(c.be.Pager(), toRecPoints(pts), c.layout)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	if err := c.be.SaveMeta(kindWindow, idx.Meta().Encode()); err != nil {
		return nil, err
	}
	c.recordBuild(engine.KindName(kindWindow), idx.Len())
	return &WindowIndex{core: c, idx: idx}, nil
}

// WindowQuery reports every point with x1 <= X <= x2 and y1 <= Y <= y2,
// plus the query's I/O profile: the exact page transfers attributed to
// this one query by an op-scoped counter.
func (ix *WindowIndex) WindowQuery(x1, x2, y1, y2 int64) ([]Point, IOProfile, error) {
	op := ix.startOp(engine.KindName(kindWindow), "query")
	pts, st, err := ix.idx.WithPager(op.pager()).Query(x1, x2, y1, y2)
	if err != nil {
		op.abort()
		return nil, IOProfile{}, fmt.Errorf("pathcache: %w", err)
	}
	prof, err := op.finish(len(pts), ix.idx.Len(), boundFor(kindWindow))
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
func (ix *WindowIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *WindowIndex) Kind() string { return engine.KindName(kindWindow) }

// Shape reports ShapeWindow.
func (ix *WindowIndex) Shape() Shape { return shapeOf(kindWindow, 0) }

// Layout reports the in-page layout of the persisted structure.
func (ix *WindowIndex) Layout() Layout { return Layout(ix.idx.Layout()) }

// Pages reports the storage footprint in pages.
func (ix *WindowIndex) Pages() int { return ix.idx.TotalPages() }
