// Package lsm is the disk-resident write tier of the repository: a
// log-structured dynamization of the paper's static path-cached structures.
// Updates land in a WAL-backed memtable; every FlushEvery records the
// memtable is sealed into a static level built with one of the six existing
// builders, cascading a Bentley–Saxe merge through the occupied level
// prefix; deletes tombstone; a crash-safe manifest names the live levels.
// See DESIGN.md §11 for the on-disk format and the recovery state machine.
package lsm

import (
	"errors"
	"fmt"
	"math"

	"pathcache/internal/disk"
	"pathcache/internal/ext3side"
	"pathcache/internal/extint"
	"pathcache/internal/extpst"
	"pathcache/internal/extseg"
	"pathcache/internal/extwindow"
	"pathcache/internal/record"
)

// Base kind bytes, matching the engine registry's kind bytes for the six
// static structures (asserted by the public layer's tests).
const (
	BaseTwoSided  byte = 1
	BaseThreeSide byte = 2
	BaseSegment   byte = 3
	BaseInterval  byte = 4
	BaseStabbing  byte = 5
	BaseWindow    byte = 6
)

// ErrUnsupported reports a query shape the configured base kind cannot
// answer: Stab on a point base, or a 2-sided Query on the segment and
// interval trees (which only answer stabbing queries).
var ErrUnsupported = errors.New("lsm: query shape unsupported by base kind")

// LevelTree is one sealed static level as the write tier sees it: an
// immutable structure that can re-encode its metadata for the manifest and
// answer the two query shapes. Implementations route every page access
// through the pager passed per call, so callers attribute the I/O to
// op-scoped counters.
//
// Records are stored points. For interval bases a point encodes the
// interval under the diagonal-corner reduction the public layer uses:
// X = -Lo, Y = Hi, so the stabbing predicate is {X >= -q, Y >= q}.
type LevelTree interface {
	Len() int
	EncodeMeta() []byte
	// Query answers the 2-sided query {x >= a, y >= b} over stored points.
	Query(p disk.Pager, a, b int64) ([]record.Point, error)
	// Stab answers the stabbing query at q over stored interval encodings.
	Stab(p disk.Pager, q int64) ([]record.Point, error)
}

// Base builds and reopens sealed levels of one static kind.
type Base interface {
	// Kind is the engine registry kind byte of the base structure.
	Kind() byte
	Name() string
	// Build seals pts (sorted by record.Point.Less) into a fresh static
	// structure on p with the given page layout. Build is never called
	// with an empty slice.
	Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error)
	Reopen(p disk.Pager, meta []byte) (LevelTree, error)
}

// BaseFor returns the Base for an engine kind byte.
func BaseFor(kind byte) (Base, error) {
	switch kind {
	case BaseTwoSided:
		return pstBase{kind: BaseTwoSided, name: "twosided"}, nil
	case BaseThreeSide:
		return threeSideBase{}, nil
	case BaseSegment:
		return segBase{}, nil
	case BaseInterval:
		return intBase{}, nil
	case BaseStabbing:
		return pstBase{kind: BaseStabbing, name: "stabbing", stab: true}, nil
	case BaseWindow:
		return windowBase{}, nil
	default:
		return nil, fmt.Errorf("lsm: no base registered for kind %d", kind)
	}
}

// pstBase seals levels as Segmented external priority search trees — the
// 2-sided structure, doubling as the stabbing base via the diagonal-corner
// reduction (Stab(q) is the 2-sided query {x >= -q, y >= q}).
type pstBase struct {
	kind byte
	name string
	stab bool
}

func (b pstBase) Kind() byte   { return b.kind }
func (b pstBase) Name() string { return b.name }

func (b pstBase) Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error) {
	t, err := extpst.BuildLayout(p, pts, extpst.Segmented, layout)
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing %s level: %w", b.name, err)
	}
	return pstLevel{t: t, stab: b.stab}, nil
}

func (b pstBase) Reopen(p disk.Pager, meta []byte) (LevelTree, error) {
	m, err := extpst.DecodeMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("lsm: decoding %s level: %w", b.name, err)
	}
	t, err := extpst.Reopen(p, m)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening %s level: %w", b.name, err)
	}
	return pstLevel{t: t, stab: b.stab}, nil
}

type pstLevel struct {
	t    *extpst.Tree
	stab bool
}

func (l pstLevel) Len() int           { return l.t.Len() }
func (l pstLevel) EncodeMeta() []byte { return l.t.Meta().Encode() }

func (l pstLevel) Query(p disk.Pager, a, b int64) ([]record.Point, error) {
	pts, _, err := extpst.QueryOwned(l.t, p, a, b)
	return pts, err
}

func (l pstLevel) Stab(p disk.Pager, q int64) ([]record.Point, error) {
	if !l.stab {
		return nil, ErrUnsupported
	}
	pts, _, err := extpst.QueryOwned(l.t, p, -q, q)
	return pts, err
}

// threeSideBase seals levels as external 3-sided trees; the 2-sided query
// {x >= a, y >= b} is the 3-sided query {a <= x <= +inf, y >= b}.
type threeSideBase struct{}

func (threeSideBase) Kind() byte   { return BaseThreeSide }
func (threeSideBase) Name() string { return "threeside" }

func (threeSideBase) Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error) {
	t, err := ext3side.BuildLayout(p, pts, layout)
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing threeside level: %w", err)
	}
	return threeSideLevel{t: t}, nil
}

func (threeSideBase) Reopen(p disk.Pager, meta []byte) (LevelTree, error) {
	m, err := ext3side.DecodeMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("lsm: decoding threeside level: %w", err)
	}
	t, err := ext3side.Reopen(p, m)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening threeside level: %w", err)
	}
	return threeSideLevel{t: t}, nil
}

type threeSideLevel struct{ t *ext3side.Tree }

func (l threeSideLevel) Len() int           { return l.t.Len() }
func (l threeSideLevel) EncodeMeta() []byte { return l.t.Meta().Encode() }

func (l threeSideLevel) Query(p disk.Pager, a, b int64) ([]record.Point, error) {
	pts, _, err := l.t.WithPager(p).Query(a, math.MaxInt64, b)
	return pts, err
}

func (l threeSideLevel) Stab(disk.Pager, int64) ([]record.Point, error) {
	return nil, ErrUnsupported
}

// windowBase seals levels as external range trees; the 2-sided query is the
// window query [a, +inf] × [b, +inf].
type windowBase struct{}

func (windowBase) Kind() byte   { return BaseWindow }
func (windowBase) Name() string { return "window" }

func (windowBase) Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error) {
	t, err := extwindow.BuildLayout(p, pts, layout)
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing window level: %w", err)
	}
	return windowLevel{t: t}, nil
}

func (windowBase) Reopen(p disk.Pager, meta []byte) (LevelTree, error) {
	m, err := extwindow.DecodeMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("lsm: decoding window level: %w", err)
	}
	t, err := extwindow.Reopen(p, m)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening window level: %w", err)
	}
	return windowLevel{t: t}, nil
}

type windowLevel struct{ t *extwindow.Tree }

func (l windowLevel) Len() int           { return l.t.Len() }
func (l windowLevel) EncodeMeta() []byte { return l.t.Meta().Encode() }

func (l windowLevel) Query(p disk.Pager, a, b int64) ([]record.Point, error) {
	pts, _, err := l.t.WithPager(p).Query(a, math.MaxInt64, b, math.MaxInt64)
	return pts, err
}

func (l windowLevel) Stab(disk.Pager, int64) ([]record.Point, error) {
	return nil, ErrUnsupported
}

// segBase seals levels as path-cached external segment trees over the
// interval decodings of the stored points.
type segBase struct{}

func (segBase) Kind() byte   { return BaseSegment }
func (segBase) Name() string { return "segment" }

func (segBase) Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error) {
	t, err := extseg.BuildLayout(p, toIntervals(pts), extseg.PathCached, layout)
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing segment level: %w", err)
	}
	return segLevel{t: t}, nil
}

func (segBase) Reopen(p disk.Pager, meta []byte) (LevelTree, error) {
	m, err := extseg.DecodeMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("lsm: decoding segment level: %w", err)
	}
	t, err := extseg.Reopen(p, m)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening segment level: %w", err)
	}
	return segLevel{t: t}, nil
}

type segLevel struct{ t *extseg.Tree }

func (l segLevel) Len() int           { return l.t.Len() }
func (l segLevel) EncodeMeta() []byte { return l.t.Meta().Encode() }

func (l segLevel) Query(disk.Pager, int64, int64) ([]record.Point, error) {
	return nil, ErrUnsupported
}

func (l segLevel) Stab(p disk.Pager, q int64) ([]record.Point, error) {
	ivs, _, err := l.t.WithPager(p).Stab(q)
	if err != nil {
		return nil, err
	}
	return toPoints(ivs), nil
}

// intBase seals levels as path-cached external interval trees.
type intBase struct{}

func (intBase) Kind() byte   { return BaseInterval }
func (intBase) Name() string { return "interval" }

func (intBase) Build(p disk.Pager, pts []record.Point, layout disk.Layout) (LevelTree, error) {
	t, err := extint.BuildLayout(p, toIntervals(pts), extint.PathCached, layout)
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing interval level: %w", err)
	}
	return intLevel{t: t}, nil
}

func (intBase) Reopen(p disk.Pager, meta []byte) (LevelTree, error) {
	m, err := extint.DecodeMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("lsm: decoding interval level: %w", err)
	}
	t, err := extint.Reopen(p, m)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening interval level: %w", err)
	}
	return intLevel{t: t}, nil
}

type intLevel struct{ t *extint.Tree }

func (l intLevel) Len() int           { return l.t.Len() }
func (l intLevel) EncodeMeta() []byte { return l.t.Meta().Encode() }

func (l intLevel) Query(disk.Pager, int64, int64) ([]record.Point, error) {
	return nil, ErrUnsupported
}

func (l intLevel) Stab(p disk.Pager, q int64) ([]record.Point, error) {
	ivs, _, err := l.t.WithPager(p).Stab(q)
	if err != nil {
		return nil, err
	}
	return toPoints(ivs), nil
}

// toIntervals decodes the diagonal-corner point encoding back to intervals
// for the segment- and interval-tree builders.
func toIntervals(pts []record.Point) []record.Interval {
	out := make([]record.Interval, len(pts))
	for i, p := range pts {
		out[i] = record.Interval{Lo: -p.X, Hi: p.Y, ID: p.ID}
	}
	return out
}

// toPoints re-encodes intervals as diagonal-corner points.
func toPoints(ivs []record.Interval) []record.Point {
	out := make([]record.Point, len(ivs))
	for i, iv := range ivs {
		out[i] = record.Point{X: -iv.Lo, Y: iv.Hi, ID: iv.ID}
	}
	return out
}
