package logmethod

import (
	"math/rand"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func TestEmpty(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Query(0, 0)
	if err != nil || out != nil {
		t.Fatalf("empty query: %v %v", out, err)
	}
}

func TestMixedWorkloadMatchesOracle(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1301))
	live := map[record.Point]bool{}
	nextID := uint64(1)
	for step := 0; step < 3000; step++ {
		r := rng.Float64()
		switch {
		case r < 0.6 || len(live) == 0:
			p := record.Point{X: rng.Int63n(50_000), Y: rng.Int63n(50_000), ID: nextID}
			nextID++
			if err := tr.Insert(p); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			live[p] = true
		case r < 0.8:
			var victim record.Point
			k := rng.Intn(len(live))
			for p := range live {
				if k == 0 {
					victim = p
					break
				}
				k--
			}
			if err := tr.Delete(victim); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(live, victim)
		default:
			a, b := rng.Int63n(55_000)-2_000, rng.Int63n(55_000)-2_000
			got, err := tr.Query(a, b)
			if err != nil {
				t.Fatalf("step %d query: %v", step, err)
			}
			ls := make([]record.Point, 0, len(live))
			for p := range live {
				ls = append(ls, p)
			}
			if want := inmem.TwoSided(ls, a, b); !inmem.SamePoints(got, want) {
				t.Fatalf("step %d query (%d,%d): got %d want %d (n=%d)",
					step, a, b, len(got), len(want), len(live))
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len=%d oracle=%d", tr.Len(), len(live))
	}
}

// The defining property: query cost scales with the number of occupied
// levels, unlike the paper's dynamic structure.
func TestQueryCostScalesWithLevels(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(20_000, 1_000_000, 1303)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Levels() < 2 {
		t.Fatalf("only %d levels occupied", tr.Levels())
	}
	var reads int64
	qs := workload.TwoSidedQueries(30, 1_000_000, 0.0005, 1305)
	for _, q := range qs {
		s.ResetStats()
		if _, err := tr.Query(q.A, q.B); err != nil {
			t.Fatal(err)
		}
		reads += s.Stats().Reads
	}
	avg := float64(reads) / float64(len(qs))
	// Each occupied level costs at least its skeletal descent.
	if avg < float64(tr.Levels()) {
		t.Fatalf("avg %.1f reads over %d levels: level tax missing?", avg, tr.Levels())
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(3_000, 100_000, 1307)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	peak := s.NumPages()
	for _, p := range pts {
		if err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Query(-1<<40, -1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || tr.Len() != 0 {
		t.Fatalf("leftovers: %d points, Len=%d", len(got), tr.Len())
	}
	if s.NumPages() > peak/4 {
		t.Fatalf("space not reclaimed: %d of %d pages", s.NumPages(), peak)
	}
}

// Injected I/O failures surface as errors, never panics.
func TestFaultInjection(t *testing.T) {
	fp := disk.NewFaultPager(disk.MustStore(512), 1<<40)
	tr, err := New(fp)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(1_000, 10_000, 1309)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	fp.SetBudget(0)
	if err := tr.Insert(pts[0]); err == nil {
		t.Fatal("starved insert succeeded")
	}
	if _, err := tr.Query(0, 0); err == nil {
		t.Fatal("starved query succeeded")
	}
}
