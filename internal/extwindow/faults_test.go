package extwindow

import (
	"errors"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/workload"
)

func TestFaultInjection(t *testing.T) {
	pts := workload.UniformPoints(2_000, 100_000, 1201)
	probe := disk.NewFaultPager(disk.MustStore(512), 1<<40)
	if _, err := Build(probe, pts); err != nil {
		t.Fatal(err)
	}
	used := 1<<40 - probe.Remaining()
	for _, budget := range []int64{0, 1, used / 2, used - 1} {
		fp := disk.NewFaultPager(disk.MustStore(512), budget)
		if _, err := Build(fp, pts); !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("build budget %d: err=%v", budget, err)
		}
	}
	fp := disk.NewFaultPager(disk.MustStore(512), 1<<40)
	tr, err := Build(fp, pts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tr.Query(10_000, 90_000, 10_000, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1, 3} {
		fp.SetBudget(budget)
		if _, _, err := tr.Query(10_000, 90_000, 10_000, 90_000); !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("query budget %d: err=%v", budget, err)
		}
	}
	fp.SetBudget(1 << 40)
	got, _, err := tr.Query(10_000, 90_000, 10_000, 90_000)
	if err != nil || !inmem.SamePoints(got, want) {
		t.Fatalf("results changed after failed queries (err=%v)", err)
	}
}

// Reopen round-trips through the meta encoding.
func TestMetaRoundTrip(t *testing.T) {
	s := disk.MustStore(512)
	pts := workload.UniformPoints(1_000, 10_000, 1203)
	tr, err := Build(s, pts)
	if err != nil {
		t.Fatal(err)
	}
	blob := tr.Meta().Encode()
	m, err := DecodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(s, m)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := tr.Query(1000, 9000, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.Query(1000, 9000, 1000, 9000)
	if err != nil || !inmem.SamePoints(got, want) {
		t.Fatalf("reopened query differs (err=%v)", err)
	}
	if _, err := DecodeMeta(blob[:10]); err == nil {
		t.Fatal("truncated meta accepted")
	}
	if _, err := DecodeMeta(make([]byte, 64)); err == nil {
		t.Fatal("zero meta accepted")
	}
}
