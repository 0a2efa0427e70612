package pathcache

import (
	"errors"
	"reflect"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/workload"
)

// faultIndex adapts one public index type to the generic fault-injection
// harness: build it over a fault pager, run one fixed query.
type faultIndex struct {
	name  string
	build func(opts *Options) (query func() (int, error), err error)
}

// newFaultOptions returns Options whose pager is wrapped in a FaultPager
// (captured in fp) with an initially unlimited budget.
func newFaultOptions(fp **disk.FaultPager) *Options {
	return &Options{
		PageSize: 512,
		WrapPager: func(p disk.Pager) disk.Pager {
			*fp = disk.NewFaultPager(p, 1<<40)
			return *fp
		},
	}
}

// TestPublicFaultInjection drives every static public index type through
// injected I/O failures: queries must return an error wrapping
// disk.ErrInjected — never panic — and once the fault clears, answers must
// match the fault-free reference exactly (no state corrupted by the failed
// attempts). This extends the fault coverage of internal/dynpst (and the
// internal ext* packages) to the public API layer, including the
// wrapped-error contract of the pathcache package.
func TestPublicFaultInjection(t *testing.T) {
	pts := uniformPoints(2_000, 100_000, 931)
	ivs := uniformIntervals(2_000, 100_000, 8_000, 933)
	q2 := workload.TwoSidedQueries(1, 100_000, 0.05, 935)[0]
	q3 := workload.ThreeSidedQueries(1, 100_000, 0.3, 0.05, 937)[0]
	stab := workload.StabQueries(1, 100_000, 939)[0]

	cases := []faultIndex{
		{"twosided-iko", func(opts *Options) (func() (int, error), error) {
			ix, err := NewTwoSidedIndex(pts, SchemeIKO, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.Query(q2.A, q2.B); return len(r), err }, nil
		}},
		{"twosided-segmented", func(opts *Options) (func() (int, error), error) {
			ix, err := NewTwoSidedIndex(pts, SchemeSegmented, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.Query(q2.A, q2.B); return len(r), err }, nil
		}},
		{"twosided-twolevel", func(opts *Options) (func() (int, error), error) {
			ix, err := NewTwoSidedIndex(pts, SchemeTwoLevel, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.Query(q2.A, q2.B); return len(r), err }, nil
		}},
		{"threeside", func(opts *Options) (func() (int, error), error) {
			ix, err := NewThreeSidedIndex(pts, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.QueryThreeSided(q3.A1, q3.A2, q3.B); return len(r), err }, nil
		}},
		{"segment", func(opts *Options) (func() (int, error), error) {
			ix, err := NewSegmentIndex(ivs, true, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.Stab(stab); return len(r), err }, nil
		}},
		{"stabbing", func(opts *Options) (func() (int, error), error) {
			ix, err := NewStabbingIndex(ivs, SchemeSegmented, opts)
			if err != nil {
				return nil, err
			}
			return func() (int, error) { r, _, err := ix.Stab(stab); return len(r), err }, nil
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fp *disk.FaultPager
			query, err := tc.build(newFaultOptions(&fp))
			if err != nil {
				t.Fatal(err)
			}
			if fp == nil {
				t.Fatal("WrapPager hook never ran")
			}
			// Fault-free reference, and the per-query operation count.
			before := fp.Remaining()
			want, err := query()
			if err != nil {
				t.Fatal(err)
			}
			used := before - fp.Remaining()
			budgets := []int64{0, 1, 2}
			if used > 3 {
				budgets = append(budgets, used/2, used-1)
			}
			for _, budget := range budgets {
				fp.SetBudget(budget)
				if _, err := query(); !errors.Is(err, disk.ErrInjected) {
					t.Fatalf("budget %d/%d: err=%v, want ErrInjected", budget, used, err)
				}
			}
			// Restoring the budget restores correct answers.
			fp.SetBudget(1 << 40)
			got, err := query()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("results changed after failed queries: got %d, want %d", got, want)
			}
		})
	}
}

// Builds must also surface injected faults as errors, not panics, through
// the public constructors.
func TestPublicBuildFaultInjection(t *testing.T) {
	pts := uniformPoints(1_000, 100_000, 941)
	ivs := uniformIntervals(1_000, 100_000, 8_000, 943)
	builders := map[string]func(opts *Options) error{
		"twosided": func(opts *Options) error {
			_, err := NewTwoSidedIndex(pts, SchemeSegmented, opts)
			return err
		},
		"threeside": func(opts *Options) error {
			_, err := NewThreeSidedIndex(pts, opts)
			return err
		},
		"segment": func(opts *Options) error {
			_, err := NewSegmentIndex(ivs, true, opts)
			return err
		},
		"stabbing": func(opts *Options) error {
			_, err := NewStabbingIndex(ivs, SchemeSegmented, opts)
			return err
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for _, budget := range []int64{0, 1, 5, 50} {
				opts := &Options{PageSize: 512, WrapPager: func(p disk.Pager) disk.Pager {
					return disk.NewFaultPager(p, budget)
				}}
				if err := build(opts); !errors.Is(err, disk.ErrInjected) {
					t.Fatalf("budget %d: err=%v, want ErrInjected", budget, err)
				}
			}
		})
	}
}

// A faulted query must not poison a later query for a *different* range:
// per-query scratch state stays isolated.
func TestPublicFaultIsolationAcrossQueries(t *testing.T) {
	pts := uniformPoints(2_000, 100_000, 945)
	var fp *disk.FaultPager
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, newFaultOptions(&fp))
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.TwoSidedQueries(8, 100_000, 0.02, 947)
	want := make([][]Point, len(qs))
	for i, q := range qs {
		if want[i], _, err = ix.Query(q.A, q.B); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range qs {
		fp.SetBudget(int64(i % 4))
		if _, _, err := ix.Query(q.A, q.B); !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("query %d: err=%v, want ErrInjected", i, err)
		}
		fp.SetBudget(1 << 40)
		got, _, err := ix.Query(qs[(i+1)%len(qs)].A, qs[(i+1)%len(qs)].B)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[(i+1)%len(qs)]) {
			t.Fatalf("query after fault %d returned different results", i)
		}
	}
}
