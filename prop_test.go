package pathcache

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
)

// The test kernel the root batteries share: one kind table, one query
// helper and brute-force oracle by shape, one comparator, one seed
// variable and one shrinker. A new scheme or kind is one row of propKinds,
// and every battery that ranges over the table picks it up.
//
// Every seeded battery reruns at one seed s, and every failure ends with
// the line that does so:
//
//	reproduce: PC_SEED=<s> go test -run '<test name>'

// propData is one dataset: points for the point shapes, intervals for
// ShapeStab.
type propData struct {
	pts []Point
	ivs []Interval
}

// propKind is one row of the kind table: a static kind under one variant.
type propKind struct {
	name    string // the registry kind name
	variant string // the scheme, "cached=<bool>", or "" for a kind with neither
	shape   Shape
	build   func(d propData, o *Options) (Index, error)
	open    func(path string) (Index, error)
}

// String is the row's name, kind-variant.
func (k propKind) String() string {
	if k.variant == "" {
		return k.name
	}
	return k.name + "-" + k.variant
}

// served reports whether the row is the variant pcindex builds: the
// Segmented scheme, path caching on.
func (k propKind) served() bool {
	return k.variant == "" || k.variant == SchemeSegmented.String() || k.variant == "cached=true"
}

var allSchemes = []Scheme{SchemeIKO, SchemeBasic, SchemeSegmented, SchemeTwoLevel, SchemeMultilevel}

// propKinds is the kind table: twosided and stabbing under every scheme,
// threeside and window, segment and interval with and without path
// caching.
var propKinds = func() []propKind {
	var ks []propKind
	for _, sc := range allSchemes {
		ks = append(ks,
			propKind{"twosided", sc.String(), ShapeTwoSided,
				func(d propData, o *Options) (Index, error) { return NewTwoSidedIndex(d.pts, sc, o) },
				func(path string) (Index, error) { return OpenTwoSidedIndex(path) }},
			propKind{"stabbing", sc.String(), ShapeStab,
				func(d propData, o *Options) (Index, error) { return NewStabbingIndex(d.ivs, sc, o) },
				func(path string) (Index, error) { return OpenStabbingIndex(path) }})
	}
	ks = append(ks,
		propKind{"threeside", "", ShapeThreeSided,
			func(d propData, o *Options) (Index, error) { return NewThreeSidedIndex(d.pts, o) },
			func(path string) (Index, error) { return OpenThreeSidedIndex(path) }},
		propKind{"window", "", ShapeWindow,
			func(d propData, o *Options) (Index, error) { return NewWindowIndex(d.pts, o) },
			func(path string) (Index, error) { return OpenWindowIndex(path) }})
	for _, cached := range []bool{false, true} {
		v := fmt.Sprintf("cached=%v", cached)
		ks = append(ks,
			propKind{"segment", v, ShapeStab,
				func(d propData, o *Options) (Index, error) { return NewSegmentIndex(d.ivs, cached, o) },
				func(path string) (Index, error) { return OpenSegmentIndex(path) }},
			propKind{"interval", v, ShapeStab,
				func(d propData, o *Options) (Index, error) { return NewIntervalIndex(d.ivs, cached, o) },
				func(path string) (Index, error) { return OpenIntervalIndex(path) }})
	}
	return ks
}()

// kindOf returns the table row for kind name under variant.
func kindOf(name, variant string) propKind {
	for _, k := range propKinds {
		if k.name == name && k.variant == variant {
			return k
		}
	}
	panic("no kind " + name + "-" + variant)
}

// arity is the number of coordinates a query of shape s reads: 2-sided
// (a, b), 3-sided (a1, a2, b), window (x1, x2, y1, y2), stab (q).
func arity(s Shape) int {
	return [...]int{ShapeTwoSided: 2, ShapeThreeSided: 3, ShapeWindow: 4, ShapeStab: 1}[s]
}

// drawQueries draws n queries of draws coordinates each, in order, from
// [0, domain); the remaining coordinates stay 0.
func drawQueries(rng *rand.Rand, n, draws int, domain int64) [][4]int64 {
	qs := make([][4]int64, n)
	for i := range qs {
		for j := 0; j < draws; j++ {
			qs[i][j] = rng.Int63n(domain)
		}
	}
	return qs
}

// bounds orders each pair of range bounds q carries under shape s, so a
// query drawn at random is well formed.
func bounds(s Shape, q [4]int64) [4]int64 {
	if s == ShapeThreeSided || s == ShapeWindow {
		q[0], q[1] = min(q[0], q[1]), max(q[0], q[1])
	}
	if s == ShapeWindow {
		q[2], q[3] = min(q[2], q[3]), max(q[2], q[3])
	}
	return q
}

// ask answers qs through ix's public interface for shape s: one serial
// call per query when workers is 0, returning each call's profile, or one
// batch call over workers goroutines. Intervals come back as points
// (Lo, Hi, ID), the encoding the oracle and comparator share.
func ask(ix Index, s Shape, qs [][4]int64, workers int) ([][]Point, []IOProfile, error) {
	qs = mapSlice(qs, func(q [4]int64) [4]int64 { return bounds(s, q) })
	var one func(q [4]int64) ([]Point, IOProfile, error)
	var batch func() ([][]Point, BatchStats, error)
	switch s {
	case ShapeTwoSided:
		x := ix.(TwoSidedQuerier)
		one = func(q [4]int64) ([]Point, IOProfile, error) { return x.Query(q[0], q[1]) }
		batch = func() ([][]Point, BatchStats, error) {
			return x.QueryBatch(mapSlice(qs, func(q [4]int64) TwoSidedQuery { return TwoSidedQuery{q[0], q[1]} }), workers)
		}
	case ShapeThreeSided:
		x := ix.(ThreeSidedQuerier)
		one = func(q [4]int64) ([]Point, IOProfile, error) { return x.QueryThreeSided(q[0], q[1], q[2]) }
		batch = func() ([][]Point, BatchStats, error) {
			return x.QueryThreeSidedBatch(mapSlice(qs, func(q [4]int64) ThreeSidedQuery { return ThreeSidedQuery{q[0], q[1], q[2]} }), workers)
		}
	case ShapeWindow:
		x := ix.(WindowQuerier)
		one = func(q [4]int64) ([]Point, IOProfile, error) { return x.WindowQuery(q[0], q[1], q[2], q[3]) }
		batch = func() ([][]Point, BatchStats, error) {
			return x.WindowQueryBatch(mapSlice(qs, func(q [4]int64) WindowQuery { return WindowQuery{q[0], q[1], q[2], q[3]} }), workers)
		}
	case ShapeStab:
		x := ix.(Stabber)
		one = func(q [4]int64) ([]Point, IOProfile, error) {
			ivs, prof, err := x.Stab(q[0])
			return ivPoints(ivs), prof, err
		}
		batch = func() ([][]Point, BatchStats, error) {
			ivs, st, err := x.StabBatch(mapSlice(qs, func(q [4]int64) int64 { return q[0] }), workers)
			return mapSlice(ivs, ivPoints), st, err
		}
	default:
		return nil, nil, fmt.Errorf("%s reports no shape", ix.Kind())
	}
	if workers > 0 {
		out, _, err := batch()
		return out, nil, err
	}
	out, profs := make([][]Point, len(qs)), make([]IOProfile, len(qs))
	for i, q := range qs {
		var err error
		if out[i], profs[i], err = one(q); err != nil {
			return nil, nil, fmt.Errorf("%v query %v: %w", s, q, err)
		}
	}
	return out, profs, nil
}

// brute is the oracle: the records of recs that answer query q of shape
// s, in input order. An interval is read as the point (Lo, Hi, ID), so a
// stab also runs over intervals already in that encoding.
func brute[T Point | Interval](s Shape, recs []T, q [4]int64) []T {
	q = bounds(s, q)
	var out []T
	for _, r := range recs {
		p := recPoint(r)
		var in bool
		switch s {
		case ShapeTwoSided:
			in = p.X >= q[0] && p.Y >= q[1]
		case ShapeThreeSided:
			in = q[0] <= p.X && p.X <= q[1] && p.Y >= q[2]
		case ShapeWindow:
			in = q[0] <= p.X && p.X <= q[1] && q[2] <= p.Y && p.Y <= q[3]
		case ShapeStab:
			in = p.X <= q[0] && q[0] <= p.Y
		}
		if in {
			out = append(out, r)
		}
	}
	return out
}

// answer is the oracle's answer to q of shape s over d, encoded as ask
// returns it.
func (d propData) answer(s Shape, q [4]int64) []Point {
	if s == ShapeStab {
		return ivPoints(brute(s, d.ivs, q))
	}
	return brute(s, d.pts, q)
}

// checkQueries answers qs through ix's interface for shape s and requires
// every answer to equal the oracle's over d as a set. Query errors are
// wrapped, so a caller can still match them with errors.Is.
func checkQueries(ix Index, s Shape, d propData, qs [][4]int64) error {
	got, _, err := ask(ix, s, qs, 0)
	if err != nil {
		return err
	}
	for i, q := range qs {
		if want := d.answer(s, q); !sameSet(got[i], want) {
			return fmt.Errorf("%v query %v: silent mismatch: got %d results, want %d", s, q, len(got[i]), len(want))
		}
	}
	return nil
}

// sameSet reports whether got and want hold the same records, duplicates
// counted, in any order. It sorts copies and leaves both slices as they
// are.
func sameSet[T Point | Interval](got, want []T) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := slices.Clone(got), slices.Clone(want)
	slices.SortFunc(g, cmpRec[T])
	slices.SortFunc(w, cmpRec[T])
	return slices.Equal(g, w)
}

// cmpRec orders points by (X, Y, ID) and intervals by (Lo, Hi, ID): the
// canonical order a sharded store merges its answers into.
func cmpRec[T Point | Interval](a, b T) int {
	p, q := recPoint(a), recPoint(b)
	return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y), cmp.Compare(p.ID, q.ID))
}

func recPoint[T Point | Interval](r T) Point {
	if iv, ok := any(r).(Interval); ok {
		return Point{X: iv.Lo, Y: iv.Hi, ID: iv.ID}
	}
	return any(r).(Point)
}

func ivPoints(ivs []Interval) []Point { return mapSlice(ivs, recPoint[Interval]) }

func mapSlice[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// propSeeds returns a battery's seeds: defaults, or the one seed PC_SEED
// names.
func propSeeds(t *testing.T, defaults ...int64) []int64 {
	s := os.Getenv("PC_SEED")
	if s == "" {
		return defaults
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("PC_SEED=%q: %v", s, err)
	}
	return []int64{v}
}

// reproduce is the line a seeded failure ends with.
func reproduce(t *testing.T, seed int64) string {
	return fmt.Sprintf("reproduce: PC_SEED=%d go test -run '%s'", seed, t.Name())
}

// shrink minimizes a failing run by halving its size while the failure
// persists, down to floor (a run is deterministic in its size and seed),
// and reports the smallest failure with its reproducer.
func shrink(t *testing.T, seed int64, dim string, size, floor int, run func(size int) error, err error) string {
	for size/2 >= floor && run(size/2) != nil {
		size /= 2
	}
	if rerr := run(size); rerr != nil {
		err = rerr
	}
	return fmt.Sprintf("fails at %s=%d seed=%d: %v\n%s", dim, size, seed, err, reproduce(t, seed))
}
