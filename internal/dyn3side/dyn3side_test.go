package dyn3side

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
	out, st, err := tr.Query(0, 100, 0)
	if err != nil || out != nil || st.Results != 0 {
		t.Fatalf("query on empty: %v %v %v", out, st, err)
	}
}

func TestMixedWorkloadMatchesOracle(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(901))
	live := map[record.Point]bool{}
	nextID := uint64(1)
	for step := 0; step < 4000; step++ {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(live) == 0:
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
			a1 := rng.Int63n(50_000)
			a2 := a1 + rng.Int63n(50_000-a1+1)
			b := rng.Int63n(55_000) - 2_000
			got, _, err := tr.Query(a1, a2, b)
			if err != nil {
				t.Fatalf("step %d query: %v", step, err)
			}
			ls := make([]record.Point, 0, len(live))
			for p := range live {
				ls = append(ls, p)
			}
			want := inmem.ThreeSided(ls, a1, a2, b)
			if !inmem.SamePoints(got, want) {
				t.Fatalf("step %d query (%d,%d,%d): got %d want %d (n=%d)",
					step, a1, a2, b, len(got), len(want), len(live))
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len=%d oracle=%d", tr.Len(), len(live))
	}
}

func logB(n, b int) int {
	if b < 2 {
		b = 2
	}
	r := 1
	for v := 1; v < n; v *= b {
		r++
	}
	return r
}

// Queries stay optimal-shaped: static cost plus at most the buffer pages.
func TestQueryIOCost(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	pts := workload.UniformPoints(n, 1_000_000, 903)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	lb := logB(n, tr.B())
	for _, q := range workload.ThreeSidedQueries(25, 1_000_000, 0.1, 0.005, 905) {
		s.ResetStats()
		got, _, err := tr.Query(q.A1, q.A2, q.B)
		if err != nil {
			t.Fatal(err)
		}
		reads := int(s.Stats().Reads)
		// Static 3-sided bound plus the buffer chain (<= ~2 lb pages).
		bound := 14*lb + 4*logB(tr.B(), 2) + 4*len(got)/tr.B() + 2*lb + 14
		if reads > bound {
			t.Fatalf("query (%d,%d,%d): %d reads for t=%d (bound %d)",
				q.A1, q.A2, q.B, reads, len(got), bound)
		}
	}
}

// Amortized update cost stays within Theorem 5.2's budget.
func TestAmortizedUpdateCost(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	pts := workload.UniformPoints(n, 1_000_000, 907)
	s.ResetStats()
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	perOp := float64(s.Stats().Total()) / float64(n)
	b := tr.B()
	lb := float64(logB(n, b))
	l2b := float64(logB(b, 2))
	budget := lb * l2b * l2b // Theorem 5.2's O(log_B n · log^2 B)
	if perOp > budget {
		t.Fatalf("amortized insert %.1f I/Os exceeds Theorem 5.2 budget %.1f", perOp, budget)
	}
}

func TestDeleteEverythingReclaimsSpace(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.UniformPoints(3_000, 100_000, 909)
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
	got, _, err := tr.Query(-1<<40, 1<<40, -1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("query after deleting all: %d points", len(got))
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if s.NumPages() > peak/4 {
		t.Fatalf("space not reclaimed: %d of peak %d pages", s.NumPages(), peak)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	s := disk.MustStore(512)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	p := record.Point{X: 10, Y: 20, ID: 7}
	for cycle := 0; cycle < 5; cycle++ {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.Query(0, 100, 0)
		if err != nil || len(got) != 1 {
			t.Fatalf("cycle %d after insert: %v %v", cycle, got, err)
		}
		if err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
		got, _, err = tr.Query(0, 100, 0)
		if err != nil || len(got) != 0 {
			t.Fatalf("cycle %d after delete: %v %v", cycle, got, err)
		}
	}
}
