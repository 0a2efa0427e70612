package btree

import (
	"errors"
	"strings"
	"testing"

	"pathcache/internal/disk"
)

// errReadBudget is returned by budgetPager when a fuzzed tree makes the
// read path chase a page cycle; it bounds the walk without masking panics.
var errReadBudget = errors.New("btree fuzz: read budget exhausted")

// budgetPager caps the number of reads an operation may issue. Corrupt
// child or leaf-chain pointers can form cycles of structurally valid
// pages, so "never hangs" needs a budget just like "never panics" needs
// the fuzzer.
type budgetPager struct {
	disk.Pager
	left int
}

func (p *budgetPager) Read(id disk.PageID, buf []byte) error {
	if p.left <= 0 {
		return errReadBudget
	}
	p.left--
	return p.Pager.Read(id, buf)
}

// budgeted returns a read-only copy of tr whose page reads go through one
// fresh budgetPager over s.
func budgeted(tr *Tree, s disk.Pager) *Tree {
	c := *tr
	c.pager = &budgetPager{Pager: s, left: 256}
	return &c
}

// fuzzTolerable classifies the errors the read path may legitimately
// surface on a corrupted image: a header violation (wrapping
// disk.ErrCorrupt), a pointer into a freed or out-of-range page
// (disk.ErrBadPage), or the test's own read budget. Anything else — above
// all a panic — is a bug.
func fuzzTolerable(err error) bool {
	return err == nil ||
		errors.Is(err, disk.ErrCorrupt) ||
		errors.Is(err, disk.ErrBadPage) ||
		errors.Is(err, errReadBudget)
}

// FuzzLayoutPageDecode splices arbitrary bytes into one page of a valid
// B+-tree and drives Search/Range/Min/Max over the damaged tree — both read
// paths, since Search and Range work on the raw page bytes while Min and
// Max decode nodes. The contract: no input may panic or hang, and every
// failure is a classified error. A non-zero layout byte in particular must
// be flagged as disk.ErrCorrupt before any slot bytes are trusted.
func FuzzLayoutPageDecode(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), []byte{}, int64(50))
	f.Add(uint8(1), uint16(1), uint16(1), []byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(120))
	f.Add(uint8(1), uint16(2), uint16(3), []byte{kindInternal, 7, 0xFF, 0x7F}, int64(-3))
	f.Add(uint8(0), uint16(3), uint16(8), []byte{kindLeaf, 0, 2, 0, 9, 9, 9, 9, 9, 9, 9, 9}, int64(7))

	f.Fuzz(func(t *testing.T, badSel uint8, pageSel, off uint16, patch []byte, key int64) {
		const pageSize = 256
		s := disk.MustStore(pageSize)
		tr, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 200; i++ {
			if err := tr.Insert(i*3, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}

		// Corrupt one allocated page in place: read it, splice the patch at
		// the fuzzed offset, write it back.
		victim := disk.PageID(int(pageSel) % s.NumPages())
		buf := make([]byte, pageSize)
		if err := s.Read(victim, buf); err != nil {
			t.Fatal(err)
		}
		at := int(off) % pageSize
		copy(buf[at:], patch)
		if err := s.Write(victim, buf); err != nil {
			t.Fatal(err)
		}

		rd := budgeted(tr, s)
		if _, err := rd.Search(key); !fuzzTolerable(err) {
			t.Fatalf("Search on corrupted page %d: %v", victim, err)
		}
		if err := rd.Range(key, key+100, func(int64, uint64) bool { return true }); !fuzzTolerable(err) {
			t.Fatalf("Range on corrupted page %d: %v", victim, err)
		}
		if _, _, err := rd.Min(); !fuzzTolerable(err) {
			t.Fatalf("Min on corrupted page %d: %v", victim, err)
		}
		if _, _, err := rd.Max(); !fuzzTolerable(err) {
			t.Fatalf("Max on corrupted page %d: %v", victim, err)
		}

		// A bad layout byte must always classify as corruption, whatever the
		// rest of the page says: force one onto the root and search again.
		if err := s.Read(tr.root, buf); err != nil {
			t.Fatal(err)
		}
		buf[1] = 1 + badSel%255 // any non-zero value, the retired byte 1 included
		if err := s.Write(tr.root, buf); err != nil {
			t.Fatal(err)
		}
		rd = budgeted(tr, s)
		if _, err := rd.Search(key); !errors.Is(err, disk.ErrCorrupt) {
			t.Fatalf("Search with invalid root layout byte: err=%v, want ErrCorrupt", err)
		}
	})
}

// TestLayoutByteRejected pins the page header's layout byte: 0 is the only
// valid value, so a page stamped with anything else fails with an error
// wrapping disk.ErrCorrupt on every read path, and byte 1 — the retired
// Eytzinger layout, whose slots are permuted — says to rebuild rather than
// being misread as sorted.
func TestLayoutByteRejected(t *testing.T) {
	for _, tc := range []struct {
		b       byte
		retired bool
	}{{1, true}, {2, false}, {255, false}} {
		s := disk.MustStore(256)
		tr, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 50; i++ {
			if err := tr.Insert(i, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 256)
		if err := s.Read(tr.root, buf); err != nil {
			t.Fatal(err)
		}
		buf[1] = tc.b
		if err := s.Write(tr.root, buf); err != nil {
			t.Fatal(err)
		}
		_, searchErr := tr.Search(7)
		_, _, minErr := tr.Min()
		for _, op := range []struct {
			name string
			err  error
		}{{"Search", searchErr}, {"Min", minErr}, {"Insert", tr.Insert(100, 100)}} {
			if !errors.Is(op.err, disk.ErrCorrupt) {
				t.Fatalf("byte %d: %s: err=%v, want ErrCorrupt", tc.b, op.name, op.err)
			}
			if got := strings.Contains(op.err.Error(), "retired"); got != tc.retired {
				t.Fatalf("byte %d: %s: error %q mentions retirement = %v, want %v", tc.b, op.name, op.err, got, tc.retired)
			}
		}
	}
}
