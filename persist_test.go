package pathcache

import (
	"path/filepath"
	"testing"

	"pathcache/internal/workload"
)

func TestFileBackedTwoSidedRoundTrip(t *testing.T) {
	for _, sc := range []Scheme{SchemeIKO, SchemeBasic, SchemeSegmented} {
		path := filepath.Join(t.TempDir(), "two.pc")
		pts := uniformPoints(4000, 100_000, 701)
		ix, err := NewTwoSidedIndex(pts, sc, &Options{PageSize: 512, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		queries := workload.TwoSidedQueries(10, 100_000, 0.02, 703)
		want := make([][]Point, len(queries))
		for i, q := range queries {
			want[i], _, err = ix.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
		}
		wantPages := ix.Pages()
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenTwoSidedIndex(path)
		if err != nil {
			t.Fatalf("%v: open: %v", sc, err)
		}
		if re.Len() != len(pts) || re.Scheme() != sc {
			t.Fatalf("%v: reopened Len=%d scheme=%v", sc, re.Len(), re.Scheme())
		}
		if re.Pages() != wantPages {
			t.Fatalf("%v: reopened pages %d, want %d", sc, re.Pages(), wantPages)
		}
		for i, q := range queries {
			got, _, err := re.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSet(got, want[i]) {
				t.Fatalf("%v: reopened query %d differs: %d vs %d", sc, i, len(got), len(want[i]))
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileBackedThreeSidedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "three.pc")
	pts := uniformPoints(4000, 100_000, 705)
	ix, err := NewThreeSidedIndex(pts, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.ThreeSidedQueries(1, 100_000, 0.2, 0.05, 707)[0]
	want, _, err := ix.QueryThreeSided(q.A1, q.A2, q.B)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenThreeSidedIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.QueryThreeSided(q.A1, q.A2, q.B)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("reopened query differs: %d vs %d", len(got), len(want))
	}
}

func TestFileBackedIntervalIndexesRoundTrip(t *testing.T) {
	ivs := uniformIntervals(3000, 100_000, 10_000, 709)
	qs := workload.StabQueries(10, 110_000, 711)

	segPath := filepath.Join(t.TempDir(), "seg.pc")
	seg, err := NewSegmentIndex(ivs, true, &Options{PageSize: 512, Path: segPath})
	if err != nil {
		t.Fatal(err)
	}
	wantSeg := make([][]Interval, len(qs))
	for i, q := range qs {
		if wantSeg[i], _, err = seg.Stab(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	reSeg, err := OpenSegmentIndex(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reSeg.Close()
	for i, q := range qs {
		got, _, err := reSeg.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(got, wantSeg[i]) {
			t.Fatalf("segment reopened stab %d differs", q)
		}
	}

	itvPath := filepath.Join(t.TempDir(), "itv.pc")
	itv, err := NewIntervalIndex(ivs, true, &Options{PageSize: 512, Path: itvPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := itv.Close(); err != nil {
		t.Fatal(err)
	}
	reItv, err := OpenIntervalIndex(itvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reItv.Close()
	for i, q := range qs {
		got, _, err := reItv.Stab(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(got, wantSeg[i]) {
			t.Fatalf("interval reopened stab %d differs", q)
		}
	}
}

func TestFileBackedStabbingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stab.pc")
	ivs := uniformIntervals(3000, 100_000, 10_000, 713)
	ix, err := NewStabbingIndex(ivs, SchemeSegmented, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.Stab(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStabbingIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Stab(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("reopened stab differs: %d vs %d", len(got), len(want))
	}
}

func TestOpenWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.pc")
	pts := uniformPoints(500, 1000, 715)
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentIndex(path); err == nil {
		t.Fatal("opened a 2-sided file as a segment index")
	}
	if _, err := OpenThreeSidedIndex(path); err == nil {
		t.Fatal("opened a 2-sided file as a 3-sided index")
	}
}

func TestOpenMissingAndForeign(t *testing.T) {
	if _, err := OpenTwoSidedIndex(filepath.Join(t.TempDir(), "missing.pc")); err == nil {
		t.Fatal("opened missing file")
	}
}

// A recursive-scheme index built on a file works within the session but
// carries no reopen metadata.
func TestFileBackedRecursiveSchemeNoReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.pc")
	pts := uniformPoints(2000, 100_000, 717)
	ix, err := NewTwoSidedIndex(pts, SchemeTwoLevel, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Query(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("file-backed two-level query found %d of %d", len(got), len(pts))
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTwoSidedIndex(path); err == nil {
		t.Fatal("reopened a two-level index that has no metadata")
	}
}

func TestFileBackedWindowRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "win.pc")
	pts := uniformPoints(4000, 100_000, 721)
	ix, err := NewWindowIndex(pts, &Options{PageSize: 512, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ix.WindowQuery(20_000, 70_000, 30_000, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWindowIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.WindowQuery(20_000, 70_000, 30_000, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(got, want) {
		t.Fatalf("reopened window query differs: %d vs %d", len(got), len(want))
	}
	if re.Len() != len(pts) {
		t.Fatalf("reopened Len = %d", re.Len())
	}
}
