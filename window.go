package pathcache

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/extwindow"
	"pathcache/internal/skeletal"
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
	var idx *extwindow.Tree
	err = c.recordBuild(engine.KindName(kindWindow), func() (int, error) {
		var err error
		if idx, err = extwindow.Build(c.be.Pager(), toRecPoints(pts)); err != nil {
			return 0, fmt.Errorf("pathcache: %w", err)
		}
		return idx.Len(), c.be.SaveMeta(kindWindow, idx.Meta().Encode())
	})
	if err != nil {
		return nil, err
	}
	return &WindowIndex{core: c, idx: idx}, nil
}

// WindowQuery reports every point with x1 <= X <= x2 and y1 <= Y <= y2,
// plus the query's I/O profile: the exact page transfers attributed to
// this one query by an op-scoped counter.
func (ix *WindowIndex) WindowQuery(x1, x2, y1, y2 int64) ([]Point, IOProfile, error) {
	return ix.appendWindowQuery(nil, x1, x2, y1, y2)
}

func (ix *WindowIndex) appendWindowQuery(dst []Point, x1, x2, y1, y2 int64) ([]Point, IOProfile, error) {
	return serial(ix.core, ix.op(), dst, WindowQuery{x1, x2, y1, y2}, ix.queryOn)
}

func (ix *WindowIndex) op() opSpec { return queryOp(kindWindow, "query", ix.idx.Len()) }

// queryOn answers one window query through p.
func (ix *WindowIndex) queryOn(p disk.Pager, dst []Point, q WindowQuery) ([]Point, skeletal.QueryStats, error) {
	pts, st, err := ix.idx.QueryOn(p, q.X1, q.X2, q.Y1, q.Y2)
	if err != nil {
		return dst, st, err
	}
	return appendRecPoints(dst, pts), st, nil
}

// Len reports the number of indexed points.
func (ix *WindowIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *WindowIndex) Kind() string { return engine.KindName(kindWindow) }

// Shape reports ShapeWindow.
func (ix *WindowIndex) Shape() Shape { return shapeOf(kindWindow, 0) }

// Pages reports the storage footprint in pages.
func (ix *WindowIndex) Pages() int { return ix.idx.TotalPages() }
