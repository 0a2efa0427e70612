package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pathcache/internal/disk"
	"pathcache/internal/race"
)

func newTestTree(t *testing.T, pageSize int) (*Tree, *disk.Store) {
	t.Helper()
	s := disk.MustStore(pageSize)
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestEmptyTree(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	vals, err := tr.Search(5)
	if err != nil || vals != nil {
		t.Fatalf("search empty: %v %v", vals, err)
	}
	if _, ok, _ := tr.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
	if _, ok, _ := tr.Max(); ok {
		t.Fatal("Max on empty returned ok")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSearchSmallPages(t *testing.T) {
	// Page of 256 bytes forces frequent splits and a tall tree.
	tr, _ := newTestTree(t, 256)
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm {
		if err := tr.Insert(int64(i), uint64(i)*10); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: tree did not grow", tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		vals, err := tr.Search(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i)*10 {
			t.Fatalf("search %d = %v", i, vals)
		}
	}
	if vals, _ := tr.Search(int64(n) + 5); len(vals) != 0 {
		t.Fatalf("search absent key = %v", vals)
	}
}

func TestDuplicateKeysDistinctValues(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	for v := uint64(0); v < 300; v++ {
		if err := tr.Insert(42, v); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := tr.Search(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 300 {
		t.Fatalf("got %d values", len(vals))
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	if err := tr.Insert(42, 7); err == nil {
		t.Fatal("duplicate (key,val) accepted")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	rng := rand.New(rand.NewSource(2))
	type kv struct {
		k int64
		v uint64
	}
	var all []kv
	for i := 0; i < 3000; i++ {
		k, v := rng.Int63n(10_000), uint64(i)
		all = append(all, kv{k, v})
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].k != all[j].k {
			return all[i].k < all[j].k
		}
		return all[i].v < all[j].v
	})
	for trial := 0; trial < 40; trial++ {
		lo := rng.Int63n(10_000)
		hi := lo + rng.Int63n(2_000)
		var got []kv
		err := tr.Range(lo, hi, func(k int64, v uint64) bool {
			got = append(got, kv{k, v})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []kv
		for _, e := range all {
			if e.k >= lo && e.k <= hi {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d]: got %d want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d] at %d: got %v want %v", lo, hi, i, got[i], want[i])
			}
		}
	}
	// Early termination.
	count := 0
	_ = tr.Range(0, 10_000, func(int64, uint64) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
	// Inverted range.
	if err := tr.Range(10, 5, func(int64, uint64) bool { t.Fatal("visited"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllRandomOrder(t *testing.T) {
	tr, s := newTestTree(t, 256)
	const n = 4000
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := s.NumPages()
	for di, i := range rng.Perm(n) {
		if err := tr.Delete(int64(i), uint64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if di%500 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("after %d deletes: %v", di+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 0 {
		t.Fatalf("height = %d after deleting all", tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if s.NumPages() >= pagesBefore {
		t.Fatalf("no pages reclaimed: %d -> %d", pagesBefore, s.NumPages())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(1, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := tr.Delete(9, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestMinMax(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	for _, k := range []int64{50, 10, 90, 30, 70} {
		if err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	mn, ok, err := tr.Min()
	if err != nil || !ok || mn.Key != 10 {
		t.Fatalf("Min = %v ok=%v err=%v", mn, ok, err)
	}
	mx, ok, err := tr.Max()
	if err != nil || !ok || mx.Key != 90 {
		t.Fatalf("Max = %v ok=%v err=%v", mx, ok, err)
	}
}

// The headline bound: a search costs O(log_B n + t/B) page reads.
func TestSearchIOCost(t *testing.T) {
	tr, s := newTestTree(t, 512)
	const n = 50_000
	rng := rand.New(rand.NewSource(4))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	maxReads := int64(tr.Height() + 2)
	for trial := 0; trial < 50; trial++ {
		k := rng.Int63n(n)
		s.ResetStats()
		if _, err := tr.Search(k); err != nil {
			t.Fatal(err)
		}
		if r := s.Stats().Reads; r > maxReads {
			t.Fatalf("search cost %d reads, height %d", r, tr.Height())
		}
	}
	// Range of t entries costs about height + t/B reads.
	s.ResetStats()
	count := 0
	if err := tr.Range(1000, 11_000, func(int64, uint64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	leafCap := (512 - leafFixed) / leafEntry
	bound := int64(tr.Height()+1) + int64(2*count/leafCap+2)
	if r := s.Stats().Reads; r > bound {
		t.Fatalf("range of %d entries cost %d reads, want <= %d", count, r, bound)
	}
}

// Space: O(n/B) pages.
func TestSpaceLinear(t *testing.T) {
	tr, s := newTestTree(t, 512)
	const n = 20_000
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	leafCap := (512 - leafFixed) / leafEntry
	// Fill factor at least ~50%: at most ~2x the perfectly packed count,
	// plus internal overhead.
	maxPages := 3 * (n/leafCap + 1)
	if s.NumPages() > maxPages {
		t.Fatalf("pages = %d, want <= %d", s.NumPages(), maxPages)
	}
}

// Property: a random interleaving of inserts and deletes always maintains
// invariants and matches a map oracle.
func TestInsertDeleteProperty(t *testing.T) {
	f := func(ops []struct {
		K   uint8
		V   uint8
		Del bool
	}) bool {
		s := disk.MustStore(256)
		tr, err := New(s)
		if err != nil {
			return false
		}
		oracle := map[Entry]bool{}
		for _, op := range ops {
			e := Entry{Key: int64(op.K), Val: uint64(op.V)}
			if op.Del {
				if oracle[e] {
					if tr.Delete(e.Key, e.Val) != nil {
						return false
					}
					delete(oracle, e)
				} else if tr.Delete(e.Key, e.Val) == nil {
					return false
				}
			} else {
				if oracle[e] {
					if tr.Insert(e.Key, e.Val) == nil {
						return false
					}
				} else {
					if tr.Insert(e.Key, e.Val) != nil {
						return false
					}
					oracle[e] = true
				}
			}
		}
		if tr.Len() != len(oracle) {
			return false
		}
		if tr.Check() != nil {
			return false
		}
		got := map[Entry]bool{}
		if tr.All(func(k int64, v uint64) bool {
			got[Entry{Key: k, Val: v}] = true
			return true
		}) != nil {
			return false
		}
		if len(got) != len(oracle) {
			return false
		}
		for e := range oracle {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BulkLoad must produce a valid tree equivalent to incremental insertion,
// in far fewer I/Os.
func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 5, 100, 5000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: rng.Int63n(10_000), Val: uint64(i)}
		}
		s := disk.MustStore(256)
		bl, err := BulkLoad(s, entries)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bl.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, bl.Len())
		}
		if err := bl.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Compare a range scan against an incrementally built tree.
		s2 := disk.MustStore(256)
		inc, err := New(s2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := inc.Insert(e.Key, e.Val); err != nil {
				t.Fatal(err)
			}
		}
		var a, b []Entry
		_ = bl.All(func(k int64, v uint64) bool { a = append(a, Entry{k, v}); return true })
		_ = inc.All(func(k int64, v uint64) bool { b = append(b, Entry{k, v}); return true })
		if len(a) != len(b) {
			t.Fatalf("n=%d: bulk %d vs incremental %d entries", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: entry %d differs: %v vs %v", n, i, a[i], b[i])
			}
		}
		// Bulk loading a sorted stream costs O(n/B) writes.
		if n >= 5000 {
			writes := s.Stats().Writes
			if writes > int64(3*(n/bl.leafCap+2)) {
				t.Fatalf("bulk load cost %d writes for n=%d", writes, n)
			}
		}
		// The bulk-loaded tree must keep accepting updates.
		if err := bl.Insert(99_999, 1); err != nil {
			t.Fatal(err)
		}
		if err := bl.Delete(99_999, 1); err != nil {
			t.Fatal(err)
		}
		if err := bl.Check(); err != nil {
			t.Fatalf("after updates: %v", err)
		}
	}
	// Duplicates rejected.
	s := disk.MustStore(256)
	if _, err := BulkLoad(s, []Entry{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("duplicate entries accepted")
	}
}

// TestRangeSearchAllocs caps the allocations of one Range over a
// bulk-loaded tree of 100,000 entries at 4 KiB pages. The read path works
// on the raw page bytes in one pooled scratch page, so a range that reports
// about 20 entries through a non-retaining callback allocates nothing.
func TestRangeSearchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	const n = 100_000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i / 2), Val: uint64(i)}
	}
	tr, err := BulkLoad(disk.MustStore(4096), entries)
	if err != nil {
		t.Fatal(err)
	}
	var seen, i int
	visit := func(int64, uint64) bool { seen++; return true }
	rangeOp := func() {
		lo := int64(i*7919) % (n / 2)
		i++
		if err := tr.Range(lo, lo+9, visit); err != nil {
			t.Fatal(err)
		}
	}
	rangeOp()
	if seen != 20 {
		t.Fatalf("range reported %d entries, want 20", seen)
	}
	if got := testing.AllocsPerRun(500, rangeOp); got > 0 {
		t.Fatalf("Tree.Range: %.1f allocs per range, want 0", got)
	}
}
