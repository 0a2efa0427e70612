package skeletal

import (
	"errors"
	"strings"
	"testing"

	"pathcache/internal/disk"
)

// tolerable classifies what the read path may surface on a corrupted
// image: a header/bitmap violation (wrapping disk.ErrCorrupt) or a node
// reference into a freed/out-of-range page (disk.ErrBadPage). Anything
// else — above all a panic — is a bug.
func tolerable(err error) bool {
	return err == nil ||
		errors.Is(err, disk.ErrCorrupt) ||
		errors.Is(err, disk.ErrBadPage)
}

// FuzzLayoutPageDecode splices arbitrary bytes into one page of a valid
// skeletal tree, then decodes every slot and runs a bounded descent.
// View.Node validates the header and the occupancy bitmap before trusting
// any slot bytes, so every failure must classify as disk.ErrCorrupt or
// disk.ErrBadPage — never a panic, never garbage served as a node from an
// unoccupied slot. Finally a non-zero layout byte is forced onto the root
// page, which must then fail every slot with disk.ErrCorrupt.
func FuzzLayoutPageDecode(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), []byte{})
	f.Add(uint8(1), uint16(1), uint16(0), []byte{0xFF, 0xFF, 0x02})
	f.Add(uint8(1), uint16(0), uint16(2), []byte{9})          // layout byte
	f.Add(uint8(0), uint16(2), uint16(3), []byte{0xFF, 0xFF}) // bitmap
	f.Add(uint8(0), uint16(0), uint16(40), []byte{1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, badSel uint8, pageSel, off uint16, patch []byte) {
		const pageSize = 256
		s := disk.MustStore(pageSize)
		keys := make([]int64, 200)
		for i := range keys {
			keys[i] = int64(i) * 3
		}
		tr, err := Build(s, buildBST(keys), 8)
		if err != nil {
			t.Fatal(err)
		}

		victim := disk.PageID(int(pageSel) % s.NumPages())
		buf := make([]byte, pageSize)
		if err := s.Read(victim, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf[int(off)%pageSize:], patch)
		if err := s.Write(victim, buf); err != nil {
			t.Fatal(err)
		}

		// Every slot of the damaged page decodes or classifies.
		v, err := tr.LoadPage(victim)
		if err != nil {
			t.Fatal(err) // the store itself is intact; only contents changed
		}
		for idx := 0; idx < (1<<tr.SubHeight())-1; idx++ {
			if _, err := v.Node(uint16(idx)); !tolerable(err) {
				t.Fatalf("Node(%d) on corrupted page %d: %v", idx, victim, err)
			}
		}

		// A full descent over the damaged tree. Corrupt child references can
		// point anywhere — including back at pages the walker has cached, so
		// the chooser bounds the walk; the budget error is the test's, not
		// the tree's.
		steps := 0
		_, err = tr.Descend(func(n Node) Dir {
			if steps++; steps > 128 {
				return Stop
			}
			if len(n.Payload) != 8 {
				t.Fatalf("descent yielded %d-byte payload, want 8", len(n.Payload))
			}
			if steps%2 == 0 {
				return Right
			}
			return Left
		})
		if !tolerable(err) {
			t.Fatalf("Descend over corrupted page %d: %v", victim, err)
		}

		root := tr.Root().Page
		if err := s.Read(root, buf); err != nil {
			t.Fatal(err)
		}
		buf[2] = 1 + badSel%255 // any non-zero value, the retired byte 1 included
		if err := s.Write(root, buf); err != nil {
			t.Fatal(err)
		}
		if v, err = tr.LoadPage(root); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < (1<<tr.SubHeight())-1; idx++ {
			if _, err := v.Node(uint16(idx)); !errors.Is(err, disk.ErrCorrupt) {
				t.Fatalf("Node(%d) with layout byte %d: err=%v, want ErrCorrupt", idx, buf[2], err)
			}
		}
	})
}

// FuzzMetaReopen feeds arbitrary bytes to ReadMeta/Reopen. A reopened
// tree's geometry (sub-height, payload size, counters) drives every slot
// offset computation, so corrupt meta must be rejected up front: decode
// either fails cleanly or yields a meta that Reopen validates, and a tree
// that does reopen must survive a bounded descent with classified errors
// only. A non-zero layout byte must be flagged as disk.ErrCorrupt.
func FuzzMetaReopen(f *testing.F) {
	s := disk.MustStore(256)
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		f.Fatal(err)
	}
	genuine := encodeMeta(tr.Meta())
	f.Add(genuine)
	for i := 0; i < len(genuine); i++ {
		mut := append([]byte(nil), genuine...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	f.Add(genuine[:len(genuine)-1])
	f.Add([]byte("not a meta"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, consumed, err := decodeMeta(raw)
		if len(raw) >= metaSize && raw[30] != 0 {
			if !errors.Is(err, disk.ErrCorrupt) {
				t.Fatalf("ReadMeta with layout byte %d: err=%v, want ErrCorrupt", raw[30], err)
			}
			return
		}
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if consumed != metaSize {
			t.Fatalf("ReadMeta consumed %d bytes, want %d", consumed, metaSize)
		}
		store := disk.MustStore(256)
		keys := make([]int64, 100)
		for i := range keys {
			keys[i] = int64(i)
		}
		if _, err := Build(store, buildBST(keys), 8); err != nil {
			t.Fatal(err)
		}
		re, err := Reopen(store, m)
		if err != nil {
			return // geometry rejected before any page was decoded against it
		}
		steps := 0
		_, err = re.Descend(func(n Node) Dir {
			if steps++; steps > 64 {
				return Stop
			}
			return Right
		})
		if !tolerable(err) {
			t.Fatalf("Descend on reopened fuzzed meta %+v: %v", m, err)
		}
	})
}

// TestLayoutByteRejected pins the layout byte of both skeletal decoders,
// the page header and the reopen meta: 0 is the only valid value, anything
// else fails with an error wrapping disk.ErrCorrupt, and byte 1 — the
// retired Eytzinger layout, whose nodes sit at heap slots — says to rebuild
// rather than being misread as sorted.
func TestLayoutByteRejected(t *testing.T) {
	for _, tc := range []struct {
		b       byte
		retired bool
	}{{1, true}, {2, false}, {255, false}} {
		s := disk.MustStore(256)
		keys := make([]int64, 100)
		for i := range keys {
			keys[i] = int64(i)
		}
		tr, err := Build(s, buildBST(keys), 8)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, disk.ErrCorrupt) {
				t.Fatalf("byte %d: %s: err=%v, want ErrCorrupt", tc.b, what, err)
			}
			if got := strings.Contains(err.Error(), "retired"); got != tc.retired {
				t.Fatalf("byte %d: %s: error %q mentions retirement = %v, want %v", tc.b, what, err, got, tc.retired)
			}
		}

		meta := encodeMeta(tr.Meta())
		if meta[30] != 0 {
			t.Fatalf("meta layout byte written as %d, want 0", meta[30])
		}
		meta[30] = tc.b
		_, _, err = decodeMeta(meta)
		check("ReadMeta", err)

		root := tr.Root()
		buf := make([]byte, 256)
		if err := s.Read(root.Page, buf); err != nil {
			t.Fatal(err)
		}
		if buf[2] != 0 {
			t.Fatalf("page layout byte written as %d, want 0", buf[2])
		}
		buf[2] = tc.b
		if err := s.Write(root.Page, buf); err != nil {
			t.Fatal(err)
		}
		_, err = tr.Descend(func(Node) Dir { return Left })
		check("Descend", err)
	}
}
