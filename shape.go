package pathcache

import "fmt"

// Shape is the query family an index answers. Each of the paper's results
// covers one shape, not one structure, so the layers above the kinds — the
// sharded router, the server and the CLI — dispatch on an index's Shape and
// call that shape's capability interface rather than switching on concrete
// index types:
//
//	ShapeTwoSided    {x >= a, y >= b}          TwoSidedQuerier    Lemma 3.1, Thms 3.2, 4.3, 4.4
//	ShapeThreeSided  {a1 <= x <= a2, y >= b}   ThreeSidedQuerier  Thms 3.3, 4.5
//	ShapeWindow      [x1, x2] × [y1, y2]       WindowQuerier      extension (internal/extwindow)
//	ShapeStab        intervals containing q    Stabber            Thms 3.4, 3.5, diagonal corner
//
// An index reporting shape S implements S's interface.
type Shape uint8

// The four query shapes.
const (
	ShapeTwoSided Shape = iota + 1
	ShapeThreeSided
	ShapeWindow
	ShapeStab
)

func (s Shape) String() string {
	switch s {
	case ShapeTwoSided:
		return "2-sided"
	case ShapeThreeSided:
		return "3-sided"
	case ShapeWindow:
		return "window"
	case ShapeStab:
		return "stab"
	default:
		return fmt.Sprintf("shape(%d)", uint8(s))
	}
}

// shapeOf is the one kind → shape table; a sharded store resolves its
// content kind through it too. base is the lsm base kind, read only when
// kind is lsm.
func shapeOf(kind, base byte) Shape {
	switch kind {
	case kindTwoSided:
		return ShapeTwoSided
	case kindThreeSide:
		return ShapeThreeSided
	case kindWindow:
		return ShapeWindow
	case kindSegment, kindInterval, kindStabbing:
		return ShapeStab
	case kindLSM:
		// The write tier answers its base's shape, except that threeside
		// and window levels serve only their 2-sided special case
		// {x >= a, y >= b}: every level must answer the same query.
		if shapeOf(base, 0) == ShapeStab {
			return ShapeStab
		}
		return ShapeTwoSided
	}
	return 0
}

// Every shape interface pairs a serial method, which returns the answer
// plus the exact page transfers attributed to that one query, with a batch
// method, which fans the queries across up to workers goroutines (<= 0
// means GOMAXPROCS) and returns the answers in input order.

// TwoSidedQuerier answers 2-sided queries {x >= a, y >= b}.
type TwoSidedQuerier interface {
	Index
	Query(a, b int64) ([]Point, IOProfile, error)
	QueryBatch(qs []TwoSidedQuery, workers int) ([][]Point, BatchStats, error)
}

// ThreeSidedQuerier answers 3-sided queries {a1 <= x <= a2, y >= b}.
type ThreeSidedQuerier interface {
	Index
	QueryThreeSided(a1, a2, b int64) ([]Point, IOProfile, error)
	QueryThreeSidedBatch(qs []ThreeSidedQuery, workers int) ([][]Point, BatchStats, error)
}

// WindowQuerier answers 4-sided window queries [x1, x2] × [y1, y2].
type WindowQuerier interface {
	Index
	WindowQuery(x1, x2, y1, y2 int64) ([]Point, IOProfile, error)
	WindowQueryBatch(qs []WindowQuery, workers int) ([][]Point, BatchStats, error)
}

// Stabber answers stabbing queries: every interval containing q.
type Stabber interface {
	Index
	Stab(q int64) ([]Interval, IOProfile, error)
	StabBatch(qs []int64, workers int) ([][]Interval, BatchStats, error)
}

// WriteTier is an index that takes updates: the lsm kind, or a sharded
// store of lsm shards. Obtain one with Writable.
type WriteTier interface {
	Index
	Insert(p Point) (IOProfile, error)
	Delete(p Point) (IOProfile, error)
	// Has reports whether the exact record (X, Y, ID) is live.
	Has(p Point) (bool, IOProfile, error)
	Flush() error
	Compact() error
	writable() bool
}

// Writable returns ix's write tier, or false when ix is static.
func Writable(ix Index) (WriteTier, bool) {
	w, ok := ix.(WriteTier)
	if !ok || !w.writable() {
		return nil, false
	}
	return w, true
}

// The gather seam: the in-package twin of each shape's serial method,
// appending the answer to dst. A sharded store's gather (sharded_query.go)
// answers every consulted shard through it, straight into one pooled
// buffer; the exported method is the twin called with a nil dst, so both
// record the same op.
type (
	twoSidedAppender interface {
		appendQuery(dst []Point, a, b int64) ([]Point, IOProfile, error)
	}
	threeSidedAppender interface {
		appendQueryThreeSided(dst []Point, a1, a2, b int64) ([]Point, IOProfile, error)
	}
	windowAppender interface {
		appendWindowQuery(dst []Point, x1, x2, y1, y2 int64) ([]Point, IOProfile, error)
	}
	stabAppender interface {
		appendStab(dst []Interval, q int64) ([]Interval, IOProfile, error)
	}
)

// Compile-time checks that every kind implements the interface of each
// shape it can report, and its gather seam.
var (
	_ twoSidedAppender   = (*TwoSidedIndex)(nil)
	_ threeSidedAppender = (*ThreeSidedIndex)(nil)
	_ windowAppender     = (*WindowIndex)(nil)
	_ stabAppender       = (*SegmentIndex)(nil)
	_ stabAppender       = (*IntervalIndex)(nil)
	_ stabAppender       = (*StabbingIndex)(nil)
	_ twoSidedAppender   = (*LSMIndex)(nil)
	_ stabAppender       = (*LSMIndex)(nil)

	_ TwoSidedQuerier   = (*TwoSidedIndex)(nil)
	_ ThreeSidedQuerier = (*ThreeSidedIndex)(nil)
	_ WindowQuerier     = (*WindowIndex)(nil)
	_ Stabber           = (*SegmentIndex)(nil)
	_ Stabber           = (*IntervalIndex)(nil)
	_ Stabber           = (*StabbingIndex)(nil)
	_ TwoSidedQuerier   = (*LSMIndex)(nil)
	_ Stabber           = (*LSMIndex)(nil)
	_ WriteTier         = (*LSMIndex)(nil)
	_ TwoSidedQuerier   = (*Sharded)(nil)
	_ ThreeSidedQuerier = (*Sharded)(nil)
	_ WindowQuerier     = (*Sharded)(nil)
	_ Stabber           = (*Sharded)(nil)
	_ WriteTier         = (*Sharded)(nil)
)
