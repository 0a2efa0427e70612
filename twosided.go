package pathcache

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/extpst"
	"pathcache/internal/skeletal"
)

// Scheme selects a static 2-sided construction from the paper's ladder.
type Scheme int

// The scheme ladder, trading storage for the technique used.
const (
	// SchemeIKO is the prior-work baseline: no caches, O(log n + t/B)
	// queries, O(n/B) pages.
	SchemeIKO Scheme = iota
	// SchemeBasic is Lemma 3.1: full-path A/S caches, optimal queries,
	// O((n/B)·log n) pages.
	SchemeBasic
	// SchemeSegmented is Theorem 3.2: per-chunk caches, optimal queries,
	// O((n/B)·log B) pages.
	SchemeSegmented
	// SchemeTwoLevel is Theorem 4.3: regions of B·log B points with X/Y
	// lists and a second level, optimal queries, O((n/B)·log log B) pages.
	SchemeTwoLevel
	// SchemeMultilevel is Theorem 4.4: recursion to O((n/B)·log* B) pages
	// with an O(log* B) additive query term.
	SchemeMultilevel
)

func (s Scheme) String() string {
	switch s {
	case SchemeIKO:
		return "iko"
	case SchemeBasic:
		return "basic"
	case SchemeSegmented:
		return "segmented"
	case SchemeTwoLevel:
		return "two-level"
	case SchemeMultilevel:
		return "multilevel"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// TwoSidedIndex is a static index answering the paper's 2-sided queries
// {x >= a, y >= b} over a fixed point set.
type TwoSidedIndex struct {
	core
	idx    extpst.PointIndex
	scheme Scheme
	// kind is the registry kind the index was built or opened as:
	// kindTwoSided normally, kindStabbing when the index is the 2-sided
	// engine behind a StabbingIndex — operations are then recorded under
	// the stabbing kind's series and bound.
	kind byte
}

// NewTwoSidedIndex builds a static 2-sided index over pts with the given
// scheme. The input slice is not retained. With Options.Path set and a flat
// scheme (IKO, Basic, Segmented), the index persists and can be reopened
// with OpenTwoSidedIndex; the recursive schemes keep in-memory tables and
// must be rebuilt on open.
func NewTwoSidedIndex(pts []Point, scheme Scheme, opts *Options) (*TwoSidedIndex, error) {
	return newTwoSidedIndex(pts, scheme, opts, kindTwoSided)
}

func newTwoSidedIndex(pts []Point, scheme Scheme, opts *Options, kind byte) (*TwoSidedIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	var sc extpst.Scheme
	switch scheme {
	case SchemeIKO:
		sc = extpst.IKO
	case SchemeBasic:
		sc = extpst.Basic
	case SchemeSegmented:
		sc = extpst.Segmented
	case SchemeTwoLevel, SchemeMultilevel:
	default:
		return nil, fmt.Errorf("pathcache: unknown scheme %v", scheme)
	}
	var idx extpst.PointIndex
	err = c.recordBuild(engine.KindName(kind), func() (int, error) {
		var err error
		rec := toRecPoints(pts)
		switch scheme {
		case SchemeTwoLevel:
			idx, err = extpst.BuildTwoLevel(c.be.Pager(), rec)
		case SchemeMultilevel:
			idx, err = extpst.BuildMultilevel(c.be.Pager(), rec)
		default:
			idx, err = extpst.Build(c.be.Pager(), rec, sc)
		}
		if err != nil {
			return 0, fmt.Errorf("pathcache: %w", err)
		}
		if flat, ok := idx.(*extpst.Tree); ok {
			return idx.Len(), c.be.SaveMeta(kind, flat.Meta().Encode())
		}
		return idx.Len(), nil
	})
	if err != nil {
		return nil, err
	}
	return &TwoSidedIndex{core: c, idx: idx, scheme: scheme, kind: kind}, nil
}

// Query reports every point with X >= a and Y >= b, plus the query's I/O
// profile: the exact page transfers attributed to this one query by an
// op-scoped counter.
func (ix *TwoSidedIndex) Query(a, b int64) ([]Point, IOProfile, error) {
	return ix.appendQuery(nil, a, b)
}

func (ix *TwoSidedIndex) appendQuery(dst []Point, a, b int64) ([]Point, IOProfile, error) {
	return serial(ix.core, ix.op("query"), dst, TwoSidedQuery{a, b}, ix.queryOn)
}

// QueryProfile is Query under its older name, which the benchmark module
// calls.
func (ix *TwoSidedIndex) QueryProfile(a, b int64) ([]Point, IOProfile, error) {
	return ix.Query(a, b)
}

// op is the spec of one recorded operation under the index's kind: "query"
// for Query, "stab" for the stabbing reduction, which records exactly one
// op under its own kind instead of an inner "query" — double-recording
// would break the invariant that per-op histogram sums equal the
// store-level Stats diff.
func (ix *TwoSidedIndex) op(name string) opSpec { return queryOp(ix.kind, name, ix.idx.Len()) }

// queryOn answers one 2-sided query through p. The walker, path and
// result accumulator come from a pooled scratch; the answer is appended to
// dst before the scratch goes back.
func (ix *TwoSidedIndex) queryOn(p disk.Pager, dst []Point, q TwoSidedQuery) ([]Point, skeletal.QueryStats, error) {
	s := extpst.GetScratch()
	defer s.Release()
	pts, st, err := ix.idx.QueryOn(p, q.A, q.B, s)
	if err != nil {
		return dst, st, err
	}
	return appendRecPoints(dst, pts), st, nil
}

// Len reports the number of indexed points.
func (ix *TwoSidedIndex) Len() int { return ix.idx.Len() }

// Scheme reports which construction the index uses.
func (ix *TwoSidedIndex) Scheme() Scheme { return ix.scheme }

// Kind reports the index's registry name.
func (ix *TwoSidedIndex) Kind() string { return engine.KindName(ix.kind) }

// Shape reports ShapeTwoSided.
func (ix *TwoSidedIndex) Shape() Shape { return shapeOf(kindTwoSided, 0) }

// Pages reports the storage footprint in pages.
func (ix *TwoSidedIndex) Pages() int { return ix.idx.TotalPages() }
