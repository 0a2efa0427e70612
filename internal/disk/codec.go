package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The metadata codec every persisted kind shares (DESIGN.md §8, §11):
//
//   - a blob chain stores raw bytes as zero-padded BlobRec-wide chain
//     records; its byte length is not self-describing, so the caller keeps
//     it next to the head;
//   - a commit record is the fixed-width metadata blob {magic u32, kind u8,
//     head u64, length u32, CRC-32C u32} naming a blob chain — the blob an
//     engine's metadata flip installs, so one superblock write swaps the
//     whole variable-length payload;
//   - FieldWriter and FieldReader are the little-endian field codec the
//     payloads and the engines' reopen metas are spelled in. The reader is
//     bounds-checked and its first error sticks and wraps ErrCorrupt.
//
// Each kind keeps its own magic and field list; only the encoding lives
// here.

// BlobRec is the record width blob chains are chunked into.
const BlobRec = 8

// WriteBlob writes raw as a fresh chain of BlobRec-wide records, the tail
// record zero-padded, and returns its head and page count. An empty raw
// writes nothing and returns InvalidPage.
func WriteBlob(p Pager, raw []byte) (PageID, int, error) {
	if tail := len(raw) % BlobRec; tail != 0 {
		raw = append(raw[:len(raw):len(raw)], make([]byte, BlobRec-tail)...)
	}
	return WriteChain(p, BlobRec, raw)
}

// ReadBlob reads a blob chain back, truncated to its size bytes.
func ReadBlob(p Pager, head PageID, size int) ([]byte, error) {
	// size comes from disk: preallocate at most 64 KiB, so a corrupt
	// length costs a failed read, not a huge allocation.
	raw := make([]byte, 0, min(size, 1<<16)+BlobRec)
	_, err := ScanChain(p, BlobRec, head, func(rec []byte) bool {
		raw = append(raw, rec...)
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(raw) < size {
		return nil, fmt.Errorf("disk: blob chain holds %d bytes, need %d: %w", len(raw), size, ErrCorrupt)
	}
	return raw[:size], nil
}

// BlobPages is the number of chain pages a size-byte blob occupies.
func BlobPages(pageSize, size int) int {
	return ChainPages(pageSize, BlobRec, (size+BlobRec-1)/BlobRec)
}

// CommitRecordSize is the encoded width of a CommitRecord: magic, kind,
// head, length, CRC. It fits the metadata page at every supported page
// size.
const CommitRecordSize = 4 + 1 + 8 + 4 + 4

// CommitRecord names a committed blob chain: the kind byte its owner
// records beside it (the write tier's base kind, a shard map's content
// kind), the chain head, the payload's byte length and its CRC-32C. The
// CRC covers the payload, so a chain whose pages pass their per-page
// checksums but reassemble into different bytes still surfaces as
// corruption.
type CommitRecord struct {
	Kind byte
	Head PageID
	Len  int
	Sum  uint32
}

// Encode spells the record under its owner's magic.
func (c CommitRecord) Encode(magic uint32) []byte {
	w := FieldWriter{Buf: make([]byte, 0, CommitRecordSize)}
	w.U32(magic)
	w.U8(c.Kind)
	w.Page(c.Head)
	w.U32(uint32(c.Len))
	w.U32(c.Sum)
	return w.Buf
}

// DecodeCommitRecord parses a commit record encoded under magic.
func DecodeCommitRecord(blob []byte, magic uint32) (CommitRecord, error) {
	if len(blob) != CommitRecordSize {
		return CommitRecord{}, fmt.Errorf("disk: commit record is %d bytes, want %d: %w", len(blob), CommitRecordSize, ErrCorrupt)
	}
	r := NewFieldReader("disk: commit record", blob)
	r.Magic(magic)
	c := CommitRecord{Kind: r.U8(), Head: r.Page(), Len: int(r.U32()), Sum: r.U32()}
	return c, r.Err()
}

// WriteCommitted writes raw as a fresh blob chain and returns the commit
// record naming it with its encoding under magic — the blob the caller's
// metadata flip installs. Nothing is published here: the caller flips,
// then frees the chain the superseded record named.
func WriteCommitted(p Pager, magic uint32, kind byte, raw []byte) (CommitRecord, []byte, error) {
	if len(raw) == 0 {
		return CommitRecord{}, nil, errors.New("disk: empty commit payload")
	}
	head, _, err := WriteBlob(p, raw)
	if err != nil {
		return CommitRecord{}, nil, err
	}
	c := CommitRecord{Kind: kind, Head: head, Len: len(raw), Sum: crc32.Checksum(raw, crcTable)}
	return c, c.Encode(magic), nil
}

// ReadCommitted decodes a commit record encoded under magic and returns it
// with the payload it names, checked: a positive length, a chain holding
// that many bytes, a matching CRC. Every failure wraps ErrCorrupt or the
// pager's read error.
func ReadCommitted(p Pager, blob []byte, magic uint32) (CommitRecord, []byte, error) {
	c, err := DecodeCommitRecord(blob, magic)
	if err != nil {
		return CommitRecord{}, nil, err
	}
	if c.Len <= 0 {
		return CommitRecord{}, nil, fmt.Errorf("disk: commit record names a %d-byte payload: %w", c.Len, ErrCorrupt)
	}
	raw, err := ReadBlob(p, c.Head, c.Len)
	if err != nil {
		return CommitRecord{}, nil, err
	}
	if sum := crc32.Checksum(raw, crcTable); sum != c.Sum {
		return CommitRecord{}, nil, fmt.Errorf("disk: committed payload checksum mismatch (%#x != %#x): %w", sum, c.Sum, ErrCorrupt)
	}
	return c, raw, nil
}

// FieldWriter appends little-endian fixed-width fields to Buf.
type FieldWriter struct {
	Buf []byte
}

func (w *FieldWriter) U8(v byte)      { w.Buf = append(w.Buf, v) }
func (w *FieldWriter) U16(v uint16)   { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *FieldWriter) U32(v uint32)   { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *FieldWriter) U64(v uint64)   { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *FieldWriter) Page(id PageID) { w.U64(uint64(id)) }

// Int writes v as 4 bytes; FieldReader.Int sign-extends it back.
func (w *FieldWriter) Int(v int) { w.U32(uint32(v)) }

// Pages writes a u32 count followed by the ids.
func (w *FieldWriter) Pages(ids []PageID) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.Page(id)
	}
}

// Bytes writes a u32 length followed by b.
func (w *FieldWriter) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// FieldReader decodes what a FieldWriter wrote, bounds-checking every
// field. The first failure sticks: later reads return zero values and Err
// reports it, wrapping ErrCorrupt.
type FieldReader struct {
	what string
	buf  []byte
	off  int
	err  error
}

// NewFieldReader reads buf; what ("lsm: manifest") prefixes its errors.
func NewFieldReader(what string, buf []byte) FieldReader {
	return FieldReader{what: what, buf: buf}
}

// Err reports the first failure, or nil.
func (r *FieldReader) Err() error { return r.err }

// Len is the number of bytes not yet read.
func (r *FieldReader) Len() int { return len(r.buf) - r.off }

// Fail records err (which should wrap ErrCorrupt) unless a failure already
// stuck.
func (r *FieldReader) Fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", r.what, err)
	}
}

func (r *FieldReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.err = fmt.Errorf("%s truncated at offset %d: %w", r.what, r.off, ErrCorrupt)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *FieldReader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *FieldReader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *FieldReader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *FieldReader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *FieldReader) Page() PageID { return PageID(r.U64()) }

// Int reads a 4-byte field, sign-extended.
func (r *FieldReader) Int() int { return int(int32(r.U32())) }

// Magic reads a u32 and fails the reader unless it equals want.
func (r *FieldReader) Magic(want uint32) {
	if got := r.U32(); r.err == nil && got != want {
		r.err = fmt.Errorf("%s: bad magic %#x: %w", r.what, got, ErrCorrupt)
	}
}

// Pages reads a count-prefixed id list.
func (r *FieldReader) Pages() []PageID {
	n := int(r.U32())
	if r.err == nil && n > r.Len()/8 {
		r.err = fmt.Errorf("%s: page list of %d entries at offset %d: %w", r.what, n, r.off, ErrCorrupt)
	}
	if r.err != nil {
		return nil
	}
	ids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, r.Page())
	}
	return ids
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *FieldReader) Bytes() []byte {
	b := r.take(int(r.U32()))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
