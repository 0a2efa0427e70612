package disk

import (
	"bytes"
	"errors"
	"testing"
)

const fuzzMagic = 0x7a7a7546 // "Fuzz"

// readFields reads the field sequence ops names from r and writes every
// value read to w, so a successful read re-encodes to the bytes consumed.
func readFields(r *FieldReader, w *FieldWriter, ops []byte) {
	for _, op := range ops {
		switch op % 9 {
		case 0:
			w.U8(r.U8())
		case 1:
			w.U16(r.U16())
		case 2:
			w.U32(r.U32())
		case 3:
			w.U64(r.U64())
		case 4:
			w.Int(r.Int())
		case 5:
			w.Page(r.Page())
		case 6:
			w.Pages(r.Pages())
		case 7:
			w.Bytes(r.Bytes())
		case 8:
			r.Magic(fuzzMagic)
			w.U32(fuzzMagic)
		}
	}
}

// FuzzMetaCodec drives the shared metadata codec with arbitrary bytes: the
// commit-record decoder and a field reader walking the field sequence ops
// names. Neither may panic; every failure wraps ErrCorrupt; every success
// re-encodes to exactly the bytes it decoded. A non-empty input also
// round-trips as a committed payload, and a wrong CRC in its record fails
// the read with ErrCorrupt.
func FuzzMetaCodec(f *testing.F) {
	genuine := CommitRecord{Kind: 3, Head: 42, Len: 99, Sum: 0xdeadbeef}.Encode(fuzzMagic)
	f.Add(genuine, []byte{8, 0, 5, 2, 2})
	f.Add(genuine[:CommitRecordSize-1], []byte{3, 3, 3})
	var w FieldWriter
	w.U32(fuzzMagic)
	w.Int(-7)
	w.Pages([]PageID{1, 2, 3})
	w.Bytes([]byte("treemeta"))
	w.U16(9)
	f.Add(w.Buf, []byte{8, 4, 6, 7, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}, []byte{6, 7})
	f.Add([]byte("not a record"), []byte{})

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		c, err := DecodeCommitRecord(data, fuzzMagic)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeCommitRecord: err = %v, want ErrCorrupt", err)
			}
		} else if got := c.Encode(fuzzMagic); !bytes.Equal(got, data) {
			t.Fatalf("commit record %+v re-encodes to %x, decoded from %x", c, got, data)
		}

		r := NewFieldReader("fuzz", data)
		var w FieldWriter
		readFields(&r, &w, ops)
		if err := r.Err(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("field reader: err = %v, want ErrCorrupt", err)
			}
		} else if consumed := data[:len(data)-r.Len()]; !bytes.Equal(w.Buf, consumed) {
			t.Fatalf("fields %v re-encode to %x, decoded from %x", ops, w.Buf, consumed)
		}

		if len(data) == 0 {
			return
		}
		s := MustStore(128)
		c, blob, err := WriteCommitted(s, fuzzMagic, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		if pages := s.NumPages(); pages != BlobPages(128, len(data)) {
			t.Fatalf("%d-byte payload took %d pages, BlobPages says %d", len(data), pages, BlobPages(128, len(data)))
		}
		got, raw, err := ReadCommitted(s, blob, fuzzMagic)
		if err != nil || got != c || !bytes.Equal(raw, data) {
			t.Fatalf("committed payload round trip: %+v %x %v, want %+v %x", got, raw, err, c, data)
		}
		c.Sum++
		if _, _, err := ReadCommitted(s, c.Encode(fuzzMagic), fuzzMagic); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wrong payload CRC: err = %v, want ErrCorrupt", err)
		}
	})
}
