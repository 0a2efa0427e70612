package pathcache

import (
	"fmt"
	"math"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/extint"
	"pathcache/internal/extpst"
	"pathcache/internal/extseg"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// The diagonal-corner reduction of [KRV], used by both stabbing indexes:
// interval [lo, hi] becomes the point (-lo, hi), and a stabbing query at q
// becomes the 2-sided query {x >= -q, y >= q}, since lo <= q <= hi is
// equivalent to -lo >= -q and hi >= q.

func intervalToPoint(iv Interval) Point { return Point{X: -iv.Lo, Y: iv.Hi, ID: iv.ID} }

func pointToInterval(p Point) Interval { return Interval{Lo: -p.X, Hi: p.Y, ID: p.ID} }

// StabbingIndex answers static stabbing queries ("which intervals contain
// q?") through the diagonal-corner reduction onto a 2-sided index — the
// paper's route to dynamic interval management for temporal and constraint
// databases.
type StabbingIndex struct {
	core
	ix *TwoSidedIndex
}

// NewStabbingIndex builds a static stabbing index over ivs using the given
// 2-sided scheme. Intervals with Lo = MinInt64 are rejected (the reduction
// negates Lo).
func NewStabbingIndex(ivs []Interval, scheme Scheme, opts *Options) (*StabbingIndex, error) {
	pts := make([]Point, len(ivs))
	for i, iv := range ivs {
		if iv.Lo > iv.Hi || iv.Lo == math.MinInt64 {
			return nil, fmt.Errorf("pathcache: invalid interval [%d,%d]", iv.Lo, iv.Hi)
		}
		pts[i] = intervalToPoint(iv)
	}
	ix, err := newTwoSidedIndex(pts, scheme, opts, kindStabbing)
	if err != nil {
		return nil, err
	}
	return &StabbingIndex{core: ix.core, ix: ix}, nil
}

// Stab reports every interval containing q, plus the query's I/O profile:
// the exact page transfers attributed to this one query by an op-scoped
// counter. The reduction records exactly one "stab" op under the stabbing
// kind — not an inner 2-sided "query" — so metric series reflect the
// operation the caller asked for.
func (si *StabbingIndex) Stab(q int64) ([]Interval, IOProfile, error) {
	return si.appendStab(nil, q)
}

func (si *StabbingIndex) appendStab(dst []Interval, q int64) ([]Interval, IOProfile, error) {
	return serial(si.core, si.ix.op("stab"), dst, q, si.stabOn)
}

// stabOn answers one stabbing query through p as the 2-sided corner query
// {x >= -q, y >= q}, on the pooled scratch the 2-sided engine runs on.
func (si *StabbingIndex) stabOn(p disk.Pager, dst []Interval, q int64) ([]Interval, skeletal.QueryStats, error) {
	s := extpst.GetScratch()
	defer s.Release()
	pts, st, err := si.ix.idx.QueryOn(p, -q, q, s)
	if err != nil {
		return dst, st, err
	}
	return appendCorners(dst, pts), st, nil
}

// appendCorners appends the intervals the diagonal corners pts encode to
// dst, growing it once by len(pts).
func appendCorners(dst []Interval, pts []record.Point) []Interval {
	n := len(dst)
	dst = slices.Grow(dst, len(pts))[:n+len(pts)]
	for i, p := range pts {
		dst[n+i] = pointToInterval(Point(p))
	}
	return dst
}

// Len reports the number of indexed intervals.
func (si *StabbingIndex) Len() int { return si.ix.Len() }

// Kind reports the index's registry name.
func (si *StabbingIndex) Kind() string { return si.ix.Kind() }

// Shape reports ShapeStab.
func (si *StabbingIndex) Shape() Shape { return shapeOf(kindStabbing, 0) }

// Pages reports the storage footprint in pages.
func (si *StabbingIndex) Pages() int { return si.ix.Pages() }

// DynamicStabbingIndex is fully dynamic interval management (Section 5 via
// the diagonal-corner reduction): stabbing queries in O(log_B n + t/B) with
// amortized O(log_B n) inserts and deletes.
type DynamicStabbingIndex struct {
	core
	ix *DynamicIndex
}

// NewDynamicStabbingIndex creates an empty dynamic stabbing index.
func NewDynamicStabbingIndex(opts *Options) (*DynamicStabbingIndex, error) {
	ix, err := NewDynamicIndex(opts)
	if err != nil {
		return nil, err
	}
	return &DynamicStabbingIndex{core: ix.core, ix: ix}, nil
}

// Insert adds an interval.
func (si *DynamicStabbingIndex) Insert(iv Interval) error {
	if iv.Lo > iv.Hi || iv.Lo == math.MinInt64 {
		return fmt.Errorf("pathcache: invalid interval [%d,%d]", iv.Lo, iv.Hi)
	}
	return si.ix.Insert(intervalToPoint(iv))
}

// Delete removes an interval previously inserted with the same (Lo, Hi, ID).
func (si *DynamicStabbingIndex) Delete(iv Interval) error {
	return si.ix.Delete(intervalToPoint(iv))
}

// Stab reports every live interval containing q.
func (si *DynamicStabbingIndex) Stab(q int64) ([]Interval, error) {
	pts, err := si.ix.Query(-q, q)
	if err != nil {
		return nil, err
	}
	out := make([]Interval, len(pts))
	for i, p := range pts {
		out[i] = pointToInterval(p)
	}
	return out, nil
}

// Len reports the number of live intervals.
func (si *DynamicStabbingIndex) Len() int { return si.ix.Len() }

// Pages reports the storage footprint in pages.
func (si *DynamicStabbingIndex) Pages() int { return si.ix.Pages() }

// SegmentIndex is the external segment tree of Section 2 / Theorem 3.4.
// With caching enabled, stabbing costs O(log_B n + t/B); the uncached
// variant is the strawman of Figure 3 and pays one wasteful I/O per
// underfull cover-list on the path.
type SegmentIndex struct {
	core
	idx *extseg.Tree
}

// NewSegmentIndex builds a static segment-tree index over ivs. Intervals
// must satisfy Lo <= Hi and Hi < MaxInt64.
func NewSegmentIndex(ivs []Interval, cached bool, opts *Options) (*SegmentIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	v := extseg.Naive
	if cached {
		v = extseg.PathCached
	}
	var idx *extseg.Tree
	err = c.recordBuild(engine.KindName(kindSegment), func() (int, error) {
		var err error
		if idx, err = extseg.Build(c.be.Pager(), toRecIntervals(ivs), v); err != nil {
			return 0, fmt.Errorf("pathcache: %w", err)
		}
		return idx.Len(), c.be.SaveMeta(kindSegment, idx.Meta().Encode())
	})
	if err != nil {
		return nil, err
	}
	return &SegmentIndex{core: c, idx: idx}, nil
}

// Stab reports every interval containing q, plus the query's I/O profile:
// the exact page transfers attributed to this one query by an op-scoped
// counter.
func (ix *SegmentIndex) Stab(q int64) ([]Interval, IOProfile, error) {
	return ix.appendStab(nil, q)
}

func (ix *SegmentIndex) appendStab(dst []Interval, q int64) ([]Interval, IOProfile, error) {
	return serial(ix.core, ix.op(), dst, q, ix.stabOn)
}

func (ix *SegmentIndex) op() opSpec { return queryOp(kindSegment, "stab", ix.idx.Len()) }

// stabOn answers one stabbing query through p.
func (ix *SegmentIndex) stabOn(p disk.Pager, dst []Interval, q int64) ([]Interval, skeletal.QueryStats, error) {
	ivs, st, err := ix.idx.StabOn(p, q)
	if err != nil {
		return dst, st, err
	}
	return appendRecIntervals(dst, ivs), st, nil
}

// Len reports the number of indexed intervals.
func (ix *SegmentIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *SegmentIndex) Kind() string { return engine.KindName(kindSegment) }

// Shape reports ShapeStab.
func (ix *SegmentIndex) Shape() Shape { return shapeOf(kindSegment, 0) }

// Pages reports the storage footprint in pages.
func (ix *SegmentIndex) Pages() int { return ix.idx.TotalPages() }

// IntervalIndex is the external (restricted) interval tree of Theorem 3.5:
// optimal stabbing with O((n/B)·log B) pages — a log n / log B factor less
// storage than the segment tree.
type IntervalIndex struct {
	core
	idx *extint.Tree
}

// NewIntervalIndex builds a static interval-tree index over ivs.
func NewIntervalIndex(ivs []Interval, cached bool, opts *Options) (*IntervalIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	v := extint.Naive
	if cached {
		v = extint.PathCached
	}
	var idx *extint.Tree
	err = c.recordBuild(engine.KindName(kindInterval), func() (int, error) {
		var err error
		if idx, err = extint.Build(c.be.Pager(), toRecIntervals(ivs), v); err != nil {
			return 0, fmt.Errorf("pathcache: %w", err)
		}
		return idx.Len(), c.be.SaveMeta(kindInterval, idx.Meta().Encode())
	})
	if err != nil {
		return nil, err
	}
	return &IntervalIndex{core: c, idx: idx}, nil
}

// Stab reports every interval containing q, plus the query's I/O profile:
// the exact page transfers attributed to this one query by an op-scoped
// counter.
func (ix *IntervalIndex) Stab(q int64) ([]Interval, IOProfile, error) {
	return ix.appendStab(nil, q)
}

func (ix *IntervalIndex) appendStab(dst []Interval, q int64) ([]Interval, IOProfile, error) {
	return serial(ix.core, ix.op(), dst, q, ix.stabOn)
}

func (ix *IntervalIndex) op() opSpec { return queryOp(kindInterval, "stab", ix.idx.Len()) }

// stabOn answers one stabbing query through p.
func (ix *IntervalIndex) stabOn(p disk.Pager, dst []Interval, q int64) ([]Interval, skeletal.QueryStats, error) {
	ivs, st, err := ix.idx.StabOn(p, q)
	if err != nil {
		return dst, st, err
	}
	return appendRecIntervals(dst, ivs), st, nil
}

// Len reports the number of indexed intervals.
func (ix *IntervalIndex) Len() int { return ix.idx.Len() }

// Kind reports the index's registry name.
func (ix *IntervalIndex) Kind() string { return engine.KindName(kindInterval) }

// Shape reports ShapeStab.
func (ix *IntervalIndex) Shape() Shape { return shapeOf(kindInterval, 0) }

// Pages reports the storage footprint in pages.
func (ix *IntervalIndex) Pages() int { return ix.idx.TotalPages() }

// ensure the record types stay layout-compatible with the public ones.
var (
	_ = record.Point(Point{})
	_ = record.Interval(Interval{})
)
