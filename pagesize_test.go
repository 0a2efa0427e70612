package pathcache

import (
	"fmt"
	"testing"

	"pathcache/internal/workload"
)

// Every index must stay correct across extreme page sizes — B ranges from 2
// (64-byte pages) to 682 (16 KiB pages), exercising degenerate chunk
// lengths, single-page chains and deep skeletons.
func TestPageSizeSweep(t *testing.T) {
	pts := uniformPoints(3000, 50_000, 371)
	ivs := uniformIntervals(3000, 50_000, 8_000, 373)
	qs2 := workload.TwoSidedQueries(8, 50_000, 0.02, 375)
	qs3 := workload.ThreeSidedQueries(8, 50_000, 0.3, 0.02, 377)
	stabs := workload.StabQueries(8, 60_000, 379)

	for _, ps := range []int{64, 128, 256, 1024, 4096, 16384} {
		ps := ps
		t.Run(fmt.Sprintf("page%d", ps), func(t *testing.T) {
			t.Parallel()
			opts := &Options{PageSize: ps}
			if B(ps) < 2 {
				t.Skipf("B(%d) = %d < 2", ps, B(ps))
			}
			for _, sc := range allSchemes {
				ix, err := NewTwoSidedIndex(pts, sc, opts)
				if err != nil {
					// Pages too small for the node payload must fail with a
					// clear error, not build something broken.
					if ps <= 128 {
						t.Logf("%v rejects page %d: %v", sc, ps, err)
						continue
					}
					t.Fatalf("%v: %v", sc, err)
				}
				for _, q := range qs2 {
					got, _, err := ix.Query(q.A, q.B)
					if err != nil {
						t.Fatal(err)
					}
					if want := brute(ShapeTwoSided, pts, [4]int64{q.A, q.B}); !sameSet(got, want) {
						t.Fatalf("%v page=%d query (%d,%d): got %d want %d",
							sc, ps, q.A, q.B, len(got), len(want))
					}
				}
			}
			three, err := NewThreeSidedIndex(pts, opts)
			if err != nil {
				if ps <= 128 {
					t.Skipf("structures reject page %d: %v", ps, err)
				}
				t.Fatal(err)
			}
			win, err := NewWindowIndex(pts, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs3 {
				got, _, err := three.QueryThreeSided(q.A1, q.A2, q.B)
				if err != nil {
					t.Fatal(err)
				}
				var want []Point
				for _, p := range pts {
					if p.X >= q.A1 && p.X <= q.A2 && p.Y >= q.B {
						want = append(want, p)
					}
				}
				if !sameSet(got, want) {
					t.Fatalf("3-sided page=%d: got %d want %d", ps, len(got), len(want))
				}
				gotW, _, err := win.WindowQuery(q.A1, q.A2, q.B, 1<<40)
				if err != nil {
					t.Fatal(err)
				}
				if !sameSet(gotW, want) {
					t.Fatalf("window page=%d: got %d want %d", ps, len(gotW), len(want))
				}
			}
			seg, err := NewSegmentIndex(ivs, true, opts)
			if err != nil {
				if ps <= 128 {
					t.Skipf("segment index rejects page %d: %v", ps, err)
				}
				t.Fatal(err)
			}
			itv, err := NewIntervalIndex(ivs, true, opts)
			if err != nil {
				if ps <= 128 {
					t.Skipf("interval index rejects page %d: %v", ps, err)
				}
				t.Fatal(err)
			}
			for _, q := range stabs {
				want := brute(ShapeStab, ivs, [4]int64{q})
				if got, _, err := seg.Stab(q); err != nil || !sameSet(got, want) {
					t.Fatalf("segment page=%d stab %d (err=%v)", ps, q, err)
				}
				if got, _, err := itv.Stab(q); err != nil || !sameSet(got, want) {
					t.Fatalf("interval page=%d stab %d (err=%v)", ps, q, err)
				}
			}
			// Dynamic structures on small pages.
			dyn, err := NewDynamicIndex(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := dyn.BulkLoad(pts[:1000]); err != nil {
				t.Fatal(err)
			}
			for _, p := range pts[1000:1400] {
				if err := dyn.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range pts[:300] {
				if err := dyn.Delete(p); err != nil {
					t.Fatal(err)
				}
			}
			live := append(append([]Point(nil), pts[300:1000]...), pts[1000:1400]...)
			q := qs2[0]
			got, err := dyn.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(ShapeTwoSided, live, [4]int64{q.A, q.B}); !sameSet(got, want) {
				t.Fatalf("dynamic page=%d: got %d want %d", ps, len(got), len(want))
			}
		})
	}
}
