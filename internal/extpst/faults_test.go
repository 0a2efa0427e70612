package extpst

import (
	"errors"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/workload"
)

// Injected I/O failures during builds must surface as errors, never panics.
func TestBuildFaultInjection(t *testing.T) {
	pts := workload.UniformPoints(2_000, 100_000, 601)
	for _, sc := range allSchemes {
		// Measure a fault-free build's operation count.
		probe := disk.NewFaultPager(disk.MustStore(512), 1<<40)
		if _, err := Build(probe, pts, sc); err != nil {
			t.Fatal(err)
		}
		used := 1<<40 - probe.Remaining()
		for _, budget := range []int64{0, 1, 2, used / 3, used / 2, used - 1} {
			fp := disk.NewFaultPager(disk.MustStore(512), budget)
			if _, err := Build(fp, pts, sc); !errors.Is(err, disk.ErrInjected) {
				t.Fatalf("%v: build with budget %d/%d: err=%v, want ErrInjected", sc, budget, used, err)
			}
		}
	}
}

// Injected I/O failures during queries must surface as errors with no
// panic, at any point of the query.
func TestQueryFaultInjection(t *testing.T) {
	pts := workload.UniformPoints(2_000, 100_000, 601)
	q := workload.TwoSidedQueries(1, 100_000, 0.05, 603)[0]
	for _, sc := range allSchemes {
		fp := disk.NewFaultPager(disk.MustStore(512), 1<<40)
		tr, err := Build(fp, pts, sc)
		if err != nil {
			t.Fatal(err)
		}
		// Fault-free reference.
		want, _, err := tr.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 1, 2, 5, 10} {
			fp.SetBudget(budget)
			_, _, err := tr.Query(q.A, q.B)
			if !errors.Is(err, disk.ErrInjected) {
				t.Fatalf("%v: query with budget %d: err=%v, want ErrInjected", sc, budget, err)
			}
		}
		// Restoring the budget restores correct answers: no state was
		// corrupted by the failed attempts.
		fp.SetBudget(1 << 40)
		got, _, err := tr.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if !inmem.SamePoints(got, want) {
			t.Fatalf("%v: results changed after failed queries", sc)
		}
	}
}

// Hierarchical builds and queries propagate faults too.
func TestHierarchicalFaultInjection(t *testing.T) {
	pts := workload.UniformPoints(3_000, 100_000, 605)
	for _, budget := range []int64{0, 5, 200} {
		fp := disk.NewFaultPager(disk.MustStore(512), budget)
		if _, err := BuildHierarchical(fp, pts, 2); !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("build with budget %d: err=%v, want ErrInjected", budget, err)
		}
	}
	fp := disk.NewFaultPager(disk.MustStore(512), 1<<40)
	h, err := BuildHierarchical(fp, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	fp.SetBudget(1)
	if _, _, err := h.Query(0, 0); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("starved query: err=%v, want ErrInjected", err)
	}
}
