package extseg

import (
	"errors"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/workload"
)

// Injected I/O failures must surface as errors, never panics, and must not
// corrupt results once the fault clears.
func TestFaultInjection(t *testing.T) {
	ivs := workload.UniformIntervals(2_000, 100_000, 20_000, 1001)
	for _, v := range []Variant{Naive, PathCached} {
		probe := disk.NewFaultPager(disk.MustStore(512), 1<<40)
		if _, err := Build(probe, ivs, v); err != nil {
			t.Fatal(err)
		}
		used := 1<<40 - probe.Remaining()
		for _, budget := range []int64{0, 1, used / 2, used - 1} {
			fp := disk.NewFaultPager(disk.MustStore(512), budget)
			if _, err := Build(fp, ivs, v); !errors.Is(err, disk.ErrInjected) {
				t.Fatalf("%v: build budget %d: err=%v", v, budget, err)
			}
		}
		fp := disk.NewFaultPager(disk.MustStore(512), 1<<40)
		tr, err := Build(fp, ivs, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := tr.Stab(50_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, 1, 3} {
			fp.SetBudget(budget)
			if _, _, err := tr.Stab(50_000); !errors.Is(err, disk.ErrInjected) {
				t.Fatalf("%v: stab budget %d: err=%v", v, budget, err)
			}
		}
		fp.SetBudget(1 << 40)
		got, _, err := tr.Stab(50_000)
		if err != nil || !inmem.SameIntervals(got, want) {
			t.Fatalf("%v: results changed after failed queries (err=%v)", v, err)
		}
	}
}
