package dynpst

import (
	"math/rand"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/inmem"
	"pathcache/internal/record"
	"pathcache/internal/workload"
)

func newTree(t *testing.T, pageSize int) (*Tree, *disk.Store) {
	t.Helper()
	s := disk.MustStore(pageSize)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 512)
	out, st, err := tr.Query(0, 0)
	if err != nil || out != nil || st.Results != 0 {
		t.Fatalf("query on empty: %v %v %v", out, st, err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertOnlyMatchesOracle(t *testing.T) {
	tr, _ := newTree(t, 512)
	pts := workload.UniformPoints(5000, 100_000, 201)
	var live []record.Point
	for i, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		live = append(live, p)
		if (i+1)%977 == 0 {
			q := workload.TwoSidedQueries(1, 100_000, 0.05, int64(i))[0]
			got, _, err := tr.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(live, q.A, q.B); !inmem.SamePoints(got, want) {
				t.Fatalf("after %d inserts, query (%d,%d): got %d want %d",
					i+1, q.A, q.B, len(got), len(want))
			}
		}
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pts))
	}
	for _, q := range workload.TwoSidedQueries(30, 100_000, 0.02, 203) {
		got, _, err := tr.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if want := inmem.TwoSided(live, q.A, q.B); !inmem.SamePoints(got, want) {
			t.Fatalf("final query (%d,%d): got %d want %d", q.A, q.B, len(got), len(want))
		}
	}
}

// The central correctness test: a long random interleaving of inserts,
// deletes and queries must always match a brute-force oracle.
func TestMixedWorkloadMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr, _ := newTree(t, 512)
		rng := rand.New(rand.NewSource(seed))
		live := map[record.Point]bool{}
		var liveSlice func() []record.Point
		liveSlice = func() []record.Point {
			out := make([]record.Point, 0, len(live))
			for p := range live {
				out = append(out, p)
			}
			return out
		}
		nextID := uint64(1)
		const steps = 6000
		for step := 0; step < steps; step++ {
			r := rng.Float64()
			switch {
			case r < 0.55 || len(live) == 0:
				p := record.Point{X: rng.Int63n(50_000), Y: rng.Int63n(50_000), ID: nextID}
				nextID++
				if err := tr.Insert(p); err != nil {
					t.Fatalf("seed %d step %d insert: %v", seed, step, err)
				}
				live[p] = true
			case r < 0.85:
				// Delete a random live point.
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
					t.Fatalf("seed %d step %d delete: %v", seed, step, err)
				}
				delete(live, victim)
			default:
				a := rng.Int63n(60_000) - 5_000
				b := rng.Int63n(60_000) - 5_000
				got, _, err := tr.Query(a, b)
				if err != nil {
					t.Fatalf("seed %d step %d query: %v", seed, step, err)
				}
				if want := inmem.TwoSided(liveSlice(), a, b); !inmem.SamePoints(got, want) {
					t.Fatalf("seed %d step %d query (%d,%d): got %d want %d (n=%d)",
						seed, step, a, b, len(got), len(want), len(live))
				}
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("seed %d: Len=%d oracle=%d", seed, tr.Len(), len(live))
		}
		// Exhaustive final checks.
		ls := liveSlice()
		for _, q := range workload.TwoSidedQueries(40, 50_000, 0.03, seed+100) {
			got, _, err := tr.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(ls, q.A, q.B); !inmem.SamePoints(got, want) {
				t.Fatalf("seed %d final query (%d,%d): got %d want %d", seed, q.A, q.B, len(got), len(want))
			}
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	tr, s := newTree(t, 512)
	pts := workload.UniformPoints(3000, 10_000, 205)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts {
		if err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	got, _, err := tr.Query(-1<<40, -1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("query after deleting all returned %d points", len(got))
	}
	_ = s
}

func TestDuplicateCoordinates(t *testing.T) {
	tr, _ := newTree(t, 512)
	var live []record.Point
	for i := 0; i < 2000; i++ {
		p := record.Point{X: int64(i % 7), Y: int64(i % 5), ID: uint64(i + 1)}
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for a := int64(-1); a <= 8; a++ {
		for b := int64(-1); b <= 6; b++ {
			got, _, err := tr.Query(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := inmem.TwoSided(live, a, b); !inmem.SamePoints(got, want) {
				t.Fatalf("query (%d,%d): got %d want %d", a, b, len(got), len(want))
			}
		}
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

// Theorem 5.1: amortized update cost O(log_B n) I/Os.
func TestAmortizedUpdateCost(t *testing.T) {
	tr, s := newTree(t, 512)
	const n = 30_000
	pts := workload.UniformPoints(n, 1_000_000, 207)
	s.ResetStats()
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	insertIOs := s.Stats().Total()
	perInsert := float64(insertIOs) / float64(n)
	// Generous constant: buffer rewrites (~4/op) + amortized distribution,
	// re-levelling and rebuilds.
	lb := float64(logB(n, tr.B()))
	if perInsert > 40*lb {
		t.Fatalf("amortized insert cost %.1f I/Os, want O(log_B n)=~%.0f", perInsert, lb)
	}

	// Deletes in random order.
	rng := rand.New(rand.NewSource(209))
	perm := rng.Perm(n)
	s.ResetStats()
	for _, i := range perm[:n/2] {
		if err := tr.Delete(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	perDelete := float64(s.Stats().Total()) / float64(n/2)
	if perDelete > 40*lb {
		t.Fatalf("amortized delete cost %.1f I/Os, want O(log_B n)=~%.0f", perDelete, lb)
	}
}

// Queries on the dynamic structure stay O(log_B n + t/B)-shaped.
func TestQueryIOCost(t *testing.T) {
	tr, s := newTree(t, 512)
	const n = 30_000
	pts := workload.UniformPoints(n, 1_000_000, 211)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	lb := logB(n, tr.B())
	for _, sel := range []float64{0.001, 0.02} {
		for _, q := range workload.TwoSidedQueries(20, 1_000_000, sel, 213) {
			s.ResetStats()
			got, st, err := tr.Query(q.A, q.B)
			if err != nil {
				t.Fatal(err)
			}
			reads := int(s.Stats().Reads)
			// Per chunk: caches + boundary + buffers + directory, plus the
			// corner's second-level query and paid-for continuations.
			bound := 14*lb + 6*len(got)/tr.B() + 16
			if reads > bound {
				t.Fatalf("query (%d,%d): %d reads for t=%d (bound %d) stats=%+v",
					q.A, q.B, reads, len(got), bound, st)
			}
		}
	}
}

// Space stays within the two-level budget (plus buffers and directories).
func TestSpaceBudget(t *testing.T) {
	tr, s := newTree(t, 512)
	const n = 30_000
	pts := workload.UniformPoints(n, 1_000_000, 217)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	b := tr.B()
	segLen := 1
	for v := 2; v < b; v *= 2 {
		segLen++
	}
	// X+Y lists (2), caches (~2), second-level trees (O(log log B) with its
	// own constants), buffers and directories.
	bound := 40 * (n/b + 1)
	if got := s.NumPages(); got > bound {
		t.Fatalf("space %d pages for n=%d (bound %d)", got, n, bound)
	}
}

// After deleting everything, the structure must release (almost) all pages.
func TestSpaceReclaimed(t *testing.T) {
	tr, s := newTree(t, 512)
	pts := workload.UniformPoints(5000, 100_000, 219)
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
	if got := s.NumPages(); got > peak/4 {
		t.Fatalf("after deleting all: %d pages live (peak %d)", got, peak)
	}
}

// BulkLoad must produce the same query answers as incremental insertion,
// in far fewer I/Os, and remain fully updatable afterwards.
func TestBulkLoad(t *testing.T) {
	pts := workload.UniformPoints(20_000, 100_000, 221)

	inc, sInc := newTree(t, 512)
	sInc.ResetStats()
	for _, p := range pts {
		if err := inc.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	incIOs := sInc.Stats().Total()

	bulk, sBulk := newTree(t, 512)
	sBulk.ResetStats()
	if err := bulk.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	bulkIOs := sBulk.Stats().Total()
	if bulk.Len() != len(pts) {
		t.Fatalf("Len = %d", bulk.Len())
	}
	if bulkIOs*3 > incIOs {
		t.Fatalf("bulk load cost %d I/Os vs incremental %d: no speedup", bulkIOs, incIOs)
	}
	for _, q := range workload.TwoSidedQueries(20, 100_000, 0.02, 223) {
		a, _, err := bulk.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := inc.Query(q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if !inmem.SamePoints(a, b) {
			t.Fatalf("bulk vs incremental differ at (%d,%d): %d vs %d", q.A, q.B, len(a), len(b))
		}
	}
	// Still updatable.
	extra := record.Point{X: 1, Y: 99_999, ID: 1 << 40}
	if err := bulk.Insert(extra); err != nil {
		t.Fatal(err)
	}
	got, _, err := bulk.Query(0, 99_999)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if p == extra {
			found = true
		}
	}
	if !found {
		t.Fatal("post-bulk insert not visible")
	}
	if err := bulk.Delete(extra); err != nil {
		t.Fatal(err)
	}
}

// BulkLoad over a non-empty tree replaces the contents.
func TestBulkLoadReplaces(t *testing.T) {
	tr, _ := newTree(t, 512)
	old := workload.UniformPoints(1000, 1000, 225)
	for _, p := range old {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	fresh := workload.UniformPoints(500, 1000, 227)
	if err := tr.BulkLoad(fresh); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, _, err := tr.Query(-1<<40, -1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if !inmem.SamePoints(got, fresh) {
		t.Fatalf("contents not replaced: %d points", len(got))
	}
}

// The on-disk buffer chain must round-trip the mirror exactly.
func TestBufferDiskMirror(t *testing.T) {
	tr, s := newTree(t, 512)
	pts := workload.UniformPoints(10, 1000, 229)
	for i, p := range pts {
		var err error
		if i%2 == 0 {
			err = tr.Insert(p)
		} else {
			err = tr.Delete(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := &tr.root.sn.u
	if buf.head == disk.InvalidPage {
		t.Fatal("buffer chain not persisted")
	}
	var decoded []op
	if _, err := disk.ScanChain(s, opSize, buf.head, func(rec []byte) bool {
		decoded = append(decoded, decodeOp(rec))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(buf.ops) {
		t.Fatalf("disk has %d ops, mirror %d", len(decoded), len(buf.ops))
	}
	for i := range decoded {
		if decoded[i] != buf.ops[i] {
			t.Fatalf("op %d differs: disk %+v mirror %+v", i, decoded[i], buf.ops[i])
		}
	}
}
