package pathcache

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/shard"
)

// Open must round-trip every persisted kind: build with Options.Path,
// close, reopen kind-agnostically, and get back an index of the same kind
// and shape answering the same queries through its shape's interface.
func TestOpenAllKinds(t *testing.T) {
	dir := t.TempDir()
	pts := uniformPoints(2_000, 100_000, 801)
	ivs := uniformIntervals(2_000, 100_000, 8_000, 803)
	dynIvs := make([]Point, len(ivs))
	for i, iv := range ivs {
		dynIvs[i] = IntervalToDynamicPoint(iv)
	}
	opts := func(name string) *Options {
		return &Options{PageSize: 512, Path: filepath.Join(dir, name)}
	}

	build := []struct {
		kind  string
		path  string
		shape Shape
		build func() (Index, error)
	}{
		{"twosided", "two.pc", ShapeTwoSided, func() (Index, error) { return NewTwoSidedIndex(pts, SchemeSegmented, opts("two.pc")) }},
		{"threeside", "three.pc", ShapeThreeSided, func() (Index, error) { return NewThreeSidedIndex(pts, opts("three.pc")) }},
		{"segment", "seg.pc", ShapeStab, func() (Index, error) { return NewSegmentIndex(ivs, true, opts("seg.pc")) }},
		{"interval", "itv.pc", ShapeStab, func() (Index, error) { return NewIntervalIndex(ivs, true, opts("itv.pc")) }},
		{"stabbing", "stab.pc", ShapeStab, func() (Index, error) { return NewStabbingIndex(ivs, SchemeSegmented, opts("stab.pc")) }},
		{"window", "win.pc", ShapeWindow, func() (Index, error) { return NewWindowIndex(pts, opts("win.pc")) }},
		{"lsm", "lsm-two.pc", ShapeTwoSided, func() (Index, error) { return BuildDynamic("twosided", pts, opts("lsm-two.pc")) }},
		{"lsm", "lsm-stab.pc", ShapeStab, func() (Index, error) { return BuildDynamic("stabbing", dynIvs, opts("lsm-stab.pc")) }},
		{"shard", "two.shards", ShapeTwoSided, func() (Index, error) {
			return BuildShardedPoints(filepath.Join(dir, "two.shards"), "twosided", pts,
				ShardPlan{Shards: 3, Scheme: SchemeSegmented}, &Options{PageSize: 512})
		}},
	}

	for _, b := range build {
		ix, err := b.build()
		if err != nil {
			t.Fatalf("%s: build: %v", b.path, err)
		}
		if got := ix.Kind(); got != b.kind {
			t.Fatalf("built index Kind() = %q, want %q", got, b.kind)
		}
		if got := ix.Shape(); got != b.shape {
			t.Fatalf("%s: built index Shape() = %v, want %v", b.path, got, b.shape)
		}
		wantLen := ix.Len()
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: close: %v", b.path, err)
		}

		re, err := Open(filepath.Join(dir, b.path))
		if err != nil {
			t.Fatalf("%s: Open: %v", b.path, err)
		}
		if got := re.Kind(); got != b.kind {
			t.Fatalf("reopened Kind() = %q, want %q", got, b.kind)
		}
		if got := re.Shape(); got != b.shape {
			t.Fatalf("%s: reopened Shape() = %v, want %v", b.path, got, b.shape)
		}
		if re.Len() != wantLen {
			t.Fatalf("%s: reopened Len = %d, want %d", b.path, re.Len(), wantLen)
		}

		// One serial call and the same query as a one-element batch, both
		// through the shape's interface, must agree. The point shapes ask
		// for the whole domain, so they must also return every record.
		serial, batch, err := queryByShape(re)
		if err != nil {
			t.Fatalf("%s: query after Open: %v", b.path, err)
		}
		if serial != batch {
			t.Fatalf("%s: serial query returned %d results, batch %d", b.path, serial, batch)
		}
		if b.shape != ShapeStab && serial != wantLen {
			t.Fatalf("%s: full-domain query returned %d of %d records", b.path, serial, wantLen)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close after Open: %v", b.path, err)
		}
	}
}

// queryByShape runs one query through ix's shape interface, serially and
// as a one-element batch, and reports both result counts.
func queryByShape(ix Index) (serial, batch int, err error) {
	var out [][]Point
	var ivs [][]Interval
	switch ix.Shape() {
	case ShapeTwoSided:
		q := ix.(TwoSidedQuerier)
		var pts []Point
		if pts, _, err = q.Query(0, 0); err == nil {
			serial = len(pts)
			out, _, err = q.QueryBatch([]TwoSidedQuery{{A: 0, B: 0}}, 2)
		}
	case ShapeThreeSided:
		q := ix.(ThreeSidedQuerier)
		var pts []Point
		if pts, _, err = q.QueryThreeSided(0, 100_000, 0); err == nil {
			serial = len(pts)
			out, _, err = q.QueryThreeSidedBatch([]ThreeSidedQuery{{A1: 0, A2: 100_000, B: 0}}, 2)
		}
	case ShapeWindow:
		q := ix.(WindowQuerier)
		var pts []Point
		if pts, _, err = q.WindowQuery(0, 100_000, 0, 100_000); err == nil {
			serial = len(pts)
			out, _, err = q.WindowQueryBatch([]WindowQuery{{X1: 0, X2: 100_000, Y1: 0, Y2: 100_000}}, 2)
		}
	case ShapeStab:
		q := ix.(Stabber)
		var res []Interval
		if res, _, err = q.Stab(50_000); err == nil {
			serial = len(res)
			ivs, _, err = q.StabBatch([]int64{50_000}, 2)
		}
	default:
		return 0, 0, fmt.Errorf("%s reports no shape", ix.Kind())
	}
	if err != nil {
		return 0, 0, err
	}
	if len(out) == 1 {
		batch = len(out[0])
	} else if len(ivs) == 1 {
		batch = len(ivs[0])
	}
	return serial, batch, nil
}

// A typed opener on a file of another kind must fail with ErrKindMismatch,
// and the message must name both kinds so the wrapped text stays
// actionable end to end.
func TestOpenKindMismatchError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.pc")
	ivs := uniformIntervals(500, 10_000, 1_000, 805)
	ix, err := NewSegmentIndex(ivs, true, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = OpenTwoSidedIndex(path)
	if err == nil {
		t.Fatal("opened a segment file as a 2-sided index")
	}
	if !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("err = %v, want ErrKindMismatch", err)
	}
	for _, want := range []string{"segment", "twosided"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not name kind %q", err, want)
		}
	}
}

// Open on a file whose build never committed reports ErrNoIndex, same as
// the typed openers.
func TestOpenNoIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.pc")
	pts := uniformPoints(1_000, 10_000, 807)
	// Recursive schemes carry no reopen metadata, so the file stays
	// headless.
	ix, err := NewTwoSidedIndex(pts, SchemeTwoLevel, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Open on headless file = %v, want ErrNoIndex", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.pc")); err == nil {
		t.Fatal("Open on missing file succeeded")
	}
}

// Every registered kind's opener must classify a metadata blob that lost
// its last byte, or whose magic is wrong, as corruption: an error wrapping
// disk.ErrCorrupt, never a plain error or a misread index. A kind added to
// the registry without a row here fails the test.
func TestOpenCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	pts := uniformPoints(500, 10_000, 809)
	ivs := uniformIntervals(500, 10_000, 1_000, 811)
	opts := func(name string) *Options {
		return &Options{PageSize: 512, Path: filepath.Join(dir, name+".pc")}
	}
	builds := map[string]func() (Index, error){
		"twosided":  func() (Index, error) { return NewTwoSidedIndex(pts, SchemeSegmented, opts("twosided")) },
		"threeside": func() (Index, error) { return NewThreeSidedIndex(pts, opts("threeside")) },
		"segment":   func() (Index, error) { return NewSegmentIndex(ivs, true, opts("segment")) },
		"interval":  func() (Index, error) { return NewIntervalIndex(ivs, true, opts("interval")) },
		"stabbing":  func() (Index, error) { return NewStabbingIndex(ivs, SchemeSegmented, opts("stabbing")) },
		"window":    func() (Index, error) { return NewWindowIndex(pts, opts("window")) },
		"lsm":       func() (Index, error) { return BuildDynamic("twosided", pts, opts("lsm")) },
		"shard": func() (Index, error) {
			return BuildShardedPoints(filepath.Join(dir, "shard"), "twosided", pts,
				ShardPlan{Shards: 2, Scheme: SchemeSegmented}, &Options{PageSize: 512})
		},
	}
	for _, d := range engine.Kinds() {
		build, ok := builds[d.Name]
		if !ok {
			t.Fatalf("registered kind %q has no corrupt-meta row", d.Name)
		}
		ix, err := build()
		if err != nil {
			t.Fatalf("%s: build: %v", d.Name, err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, d.Name+".pc")
		if d.Name == "shard" {
			path = filepath.Join(dir, "shard", shard.MapFileName)
		}
		be, err := engine.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		kind, blob, err := be.ReadKind()
		if err != nil || kind != d.Kind {
			t.Fatalf("%s: ReadKind = %d, %v", d.Name, kind, err)
		}
		badMagic := append([]byte(nil), blob...)
		badMagic[0] ^= 0xff
		for _, tc := range []struct {
			name string
			blob []byte
		}{{"truncated", blob[:len(blob)-1]}, {"bad magic", badMagic}} {
			if _, err := d.Open(be, tc.blob); !errors.Is(err, disk.ErrCorrupt) {
				t.Errorf("%s: %s meta: err = %v, want disk.ErrCorrupt", d.Name, tc.name, err)
			}
		}
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
