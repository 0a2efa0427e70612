package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// The manifest is the write tier's root: one variable-length record naming
// the WAL chain, the tombstone chain, and every sealed level (its slot,
// record count, static-tree metadata, data/tree page sets and bloom
// parameters). It is serialized into a byte chain of fresh pages on every
// flush or compaction; the commit point is the engine metadata page flip
// (SetAppHead + sync on the double-buffered, CRC-guarded superblock), which
// atomically swaps the file from the old manifest to the new one. Nothing
// the old manifest references is freed before that flip, so a crash on
// either side of it recovers a consistent state. See DESIGN.md §11.

// manifestMagic and metaMagic version the two encodings.
const (
	manifestMagic = 0x316d736c // "lsm1"
	metaMagic     = 0x4d6d736c // "lsmM"
)

// blobRec is the record width blob chains (manifest, bloom filters) are
// chunked into.
const blobRec = 8

// castagnoli matches the FileStore's checksum polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeBlobChain chunks raw into a chain of blobRec-wide records, padding
// the tail chunk with zeros. The byte length is not self-describing;
// callers persist it next to the head.
func writeBlobChain(p disk.Pager, raw []byte) (disk.PageID, int, error) {
	w, err := disk.NewChainWriter(p, blobRec)
	if err != nil {
		return disk.InvalidPage, 0, err
	}
	var chunk [blobRec]byte
	for off := 0; off < len(raw); off += blobRec {
		for i := range chunk {
			chunk[i] = 0
		}
		copy(chunk[:], raw[off:])
		if err := w.Append(chunk[:]); err != nil {
			return disk.InvalidPage, 0, err
		}
	}
	head, pages, _, err := w.Close()
	return head, pages, err
}

// readBlobChain reads a blob chain back and truncates to size bytes.
func readBlobChain(p disk.Pager, head disk.PageID, size int) ([]byte, error) {
	raw := make([]byte, 0, size+blobRec)
	_, err := disk.ScanChain(p, blobRec, head, func(rec []byte) bool {
		raw = append(raw, rec...)
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(raw) < size {
		return nil, fmt.Errorf("lsm: blob chain holds %d bytes, need %d: %w", len(raw), size, disk.ErrCorrupt)
	}
	return raw[:size], nil
}

// manifest is the decoded root record.
type manifest struct {
	baseKind   byte
	seq        uint64
	liveN      uint64
	flushEvery uint32
	walHead    disk.PageID
	tombHead   disk.PageID
	tombCount  uint32
	tombPages  uint32
	levels     []levelRecord
}

// levelRecord describes one sealed level in the manifest.
type levelRecord struct {
	slot      uint32
	n         uint64
	dataHead  disk.PageID
	dataPages []disk.PageID
	treePages []disk.PageID
	bloomHead disk.PageID
	bloomBits uint64
	treeMeta  []byte
}

func putU32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func putU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func putPage(buf []byte, id disk.PageID) []byte { return putU64(buf, uint64(id)) }

func putPages(buf []byte, ids []disk.PageID) []byte {
	buf = putU32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = putPage(buf, id)
	}
	return buf
}

// encode serializes the manifest.
func (m *manifest) encode() []byte {
	buf := make([]byte, 0, 256)
	buf = putU32(buf, manifestMagic)
	buf = append(buf, m.baseKind)
	buf = putU64(buf, m.seq)
	buf = putU64(buf, m.liveN)
	buf = putU32(buf, m.flushEvery)
	buf = putPage(buf, m.walHead)
	buf = putPage(buf, m.tombHead)
	buf = putU32(buf, m.tombCount)
	buf = putU32(buf, m.tombPages)
	buf = putU32(buf, uint32(len(m.levels)))
	for _, lv := range m.levels {
		buf = putU32(buf, lv.slot)
		buf = putU64(buf, lv.n)
		buf = putPage(buf, lv.dataHead)
		buf = putPages(buf, lv.dataPages)
		buf = putPages(buf, lv.treePages)
		buf = putPage(buf, lv.bloomHead)
		buf = putU64(buf, lv.bloomBits)
		buf = putU32(buf, uint32(len(lv.treeMeta)))
		buf = append(buf, lv.treeMeta...)
	}
	return buf
}

// manifestReader decodes with bounds checking; any overrun marks corruption.
type manifestReader struct {
	buf []byte
	off int
	err error
}

func (r *manifestReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("lsm: manifest truncated at offset %d: %w", r.off, disk.ErrCorrupt)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *manifestReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *manifestReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *manifestReader) page() disk.PageID { return disk.PageID(r.u64()) }

func (r *manifestReader) pages() []disk.PageID {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("lsm: manifest page list of %d entries: %w", n, disk.ErrCorrupt)
		}
		return nil
	}
	ids := make([]disk.PageID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, r.page())
	}
	return ids
}

// decodeManifest parses raw into a manifest.
func decodeManifest(raw []byte) (*manifest, error) {
	r := &manifestReader{buf: raw}
	if magic := r.u32(); r.err == nil && magic != manifestMagic {
		return nil, fmt.Errorf("lsm: bad manifest magic %#x: %w", magic, disk.ErrCorrupt)
	}
	m := &manifest{}
	if b := r.take(1); b != nil {
		m.baseKind = b[0]
	}
	m.seq = r.u64()
	m.liveN = r.u64()
	m.flushEvery = r.u32()
	m.walHead = r.page()
	m.tombHead = r.page()
	m.tombCount = r.u32()
	m.tombPages = r.u32()
	nLevels := int(r.u32())
	if r.err == nil && (nLevels < 0 || nLevels > 64) {
		return nil, fmt.Errorf("lsm: manifest names %d levels: %w", nLevels, disk.ErrCorrupt)
	}
	for i := 0; i < nLevels && r.err == nil; i++ {
		var lv levelRecord
		lv.slot = r.u32()
		lv.n = r.u64()
		lv.dataHead = r.page()
		lv.dataPages = r.pages()
		lv.treePages = r.pages()
		lv.bloomHead = r.page()
		lv.bloomBits = r.u64()
		metaLen := int(r.u32())
		if meta := r.take(metaLen); meta != nil {
			lv.treeMeta = append([]byte(nil), meta...)
		}
		m.levels = append(m.levels, lv)
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// metaBlobSize is the fixed width of the engine metadata blob: magic, base
// kind, manifest head, manifest length, manifest CRC. It fits the metadata
// page at every supported page size.
const metaBlobSize = 4 + 1 + 8 + 4 + 4

// encodeMetaBlob builds the engine metadata page blob pointing at a
// manifest chain. The CRC covers the manifest bytes, so a manifest whose
// pages pass their per-page checksums but decode to a different record
// (impossible short of a store bug, but cheap to rule out) still surfaces
// as corruption.
func encodeMetaBlob(baseKind byte, head disk.PageID, manifestLen int, sum uint32) []byte {
	buf := make([]byte, 0, metaBlobSize)
	buf = putU32(buf, metaMagic)
	buf = append(buf, baseKind)
	buf = putPage(buf, head)
	buf = putU32(buf, uint32(manifestLen))
	buf = putU32(buf, sum)
	return buf
}

// metaBlob is the decoded engine metadata blob.
type metaBlob struct {
	baseKind    byte
	head        disk.PageID
	manifestLen int
	sum         uint32
}

// DecodeMetaBlob parses the engine metadata blob. Exported so the public
// layer can learn the base kind before constructing the tree.
func DecodeMetaBlob(blob []byte) (baseKind byte, err error) {
	mb, err := decodeMetaBlob(blob)
	if err != nil {
		return 0, err
	}
	return mb.baseKind, nil
}

func decodeMetaBlob(blob []byte) (metaBlob, error) {
	if len(blob) != metaBlobSize {
		return metaBlob{}, fmt.Errorf("lsm: metadata blob is %d bytes, want %d: %w", len(blob), metaBlobSize, disk.ErrCorrupt)
	}
	if magic := binary.LittleEndian.Uint32(blob[0:4]); magic != metaMagic {
		return metaBlob{}, fmt.Errorf("lsm: bad metadata magic %#x: %w", magic, disk.ErrCorrupt)
	}
	return metaBlob{
		baseKind:    blob[4],
		head:        disk.PageID(binary.LittleEndian.Uint64(blob[5:13])),
		manifestLen: int(binary.LittleEndian.Uint32(blob[13:17])),
		sum:         binary.LittleEndian.Uint32(blob[17:21]),
	}, nil
}

// writeManifest persists m as a fresh blob chain and returns the metadata
// blob that commits it.
func writeManifest(p disk.Pager, m *manifest) (head disk.PageID, blob []byte, err error) {
	raw := m.encode()
	head, _, err = writeBlobChain(p, raw)
	if err != nil {
		return disk.InvalidPage, nil, fmt.Errorf("lsm: writing manifest chain: %w", err)
	}
	if head == disk.InvalidPage {
		return disk.InvalidPage, nil, fmt.Errorf("lsm: empty manifest encoding")
	}
	sum := crc32.Checksum(raw, castagnoli)
	return head, encodeMetaBlob(m.baseKind, head, len(raw), sum), nil
}

// readManifest loads and validates the manifest a metadata blob points at.
func readManifest(p disk.Pager, blob []byte) (*manifest, error) {
	mb, err := decodeMetaBlob(blob)
	if err != nil {
		return nil, err
	}
	if mb.manifestLen <= 0 {
		return nil, fmt.Errorf("lsm: metadata names a %d-byte manifest: %w", mb.manifestLen, disk.ErrCorrupt)
	}
	raw, err := readBlobChain(p, mb.head, mb.manifestLen)
	if err != nil {
		return nil, fmt.Errorf("lsm: reading manifest chain: %w", err)
	}
	if sum := crc32.Checksum(raw, castagnoli); sum != mb.sum {
		return nil, fmt.Errorf("lsm: manifest checksum mismatch (%#x != %#x): %w", sum, mb.sum, disk.ErrCorrupt)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, err
	}
	if m.baseKind != mb.baseKind {
		return nil, fmt.Errorf("lsm: manifest base kind %d != metadata base kind %d: %w", m.baseKind, mb.baseKind, disk.ErrCorrupt)
	}
	return m, nil
}

// writeTombChain persists the tombstone set as a point chain in sorted
// order (deterministic bytes for a given set) and returns head and pages.
func writeTombChain(p disk.Pager, tombs map[record.Point]bool) (disk.PageID, int, error) {
	if len(tombs) == 0 {
		return disk.InvalidPage, 0, nil
	}
	pts := make([]record.Point, 0, len(tombs))
	for pt := range tombs {
		pts = append(pts, pt)
	}
	slices.SortFunc(pts, record.CmpXYID)
	w, err := disk.NewChainWriter(p, record.PointSize)
	if err != nil {
		return disk.InvalidPage, 0, err
	}
	var rec [record.PointSize]byte
	for _, pt := range pts {
		pt.Encode(rec[:])
		if err := w.Append(rec[:]); err != nil {
			return disk.InvalidPage, 0, err
		}
	}
	head, pages, _, err := w.Close()
	return head, pages, err
}

// readTombChain loads a tombstone chain into a set.
func readTombChain(p disk.Pager, head disk.PageID, count int) (map[record.Point]bool, error) {
	tombs := make(map[record.Point]bool, count)
	_, err := disk.ScanChain(p, record.PointSize, head, func(rec []byte) bool {
		tombs[record.DecodePoint(rec)] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(tombs) != count {
		return nil, fmt.Errorf("lsm: tombstone chain holds %d records, manifest says %d: %w", len(tombs), count, disk.ErrCorrupt)
	}
	return tombs, nil
}
