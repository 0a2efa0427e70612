package lsm

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// The manifest is the write tier's root: one variable-length record naming
// the WAL chain, the tombstone chain, and every sealed level (its slot,
// record count, static-tree metadata, data/tree page sets and bloom
// parameters). Every flush or compaction writes it as a fresh blob chain
// named by a commit record (disk.WriteCommitted, the codec the shard map
// and the engine metas share); the commit point is the engine metadata
// page flip installing that record (SetAppHead + sync on the
// double-buffered, CRC-guarded superblock), which atomically swaps the
// file from the old manifest to the new one. Nothing
// the old manifest references is freed before that flip, so a crash on
// either side of it recovers a consistent state. See DESIGN.md §11.

// manifestMagic versions the manifest encoding; metaMagic versions the
// commit record (disk.CommitRecord) naming it.
const (
	manifestMagic = 0x316d736c // "lsm1"
	metaMagic     = 0x4d6d736c // "lsmM"
)

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

// encode serializes the manifest.
func (m *manifest) encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 256)}
	w.U32(manifestMagic)
	w.U8(m.baseKind)
	w.U64(m.seq)
	w.U64(m.liveN)
	w.U32(m.flushEvery)
	w.Page(m.walHead)
	w.Page(m.tombHead)
	w.U32(m.tombCount)
	w.U32(m.tombPages)
	w.U32(uint32(len(m.levels)))
	for _, lv := range m.levels {
		w.U32(lv.slot)
		w.U64(lv.n)
		w.Page(lv.dataHead)
		w.Pages(lv.dataPages)
		w.Pages(lv.treePages)
		w.Page(lv.bloomHead)
		w.U64(lv.bloomBits)
		w.Bytes(lv.treeMeta)
	}
	return w.Buf
}

// decodeManifest parses raw into a manifest.
func decodeManifest(raw []byte) (*manifest, error) {
	r := disk.NewFieldReader("lsm: manifest", raw)
	r.Magic(manifestMagic)
	m := &manifest{
		baseKind:   r.U8(),
		seq:        r.U64(),
		liveN:      r.U64(),
		flushEvery: r.U32(),
		walHead:    r.Page(),
		tombHead:   r.Page(),
		tombCount:  r.U32(),
		tombPages:  r.U32(),
	}
	nLevels := int(r.U32())
	if r.Err() == nil && (nLevels < 0 || nLevels > 64) {
		return nil, fmt.Errorf("lsm: manifest names %d levels: %w", nLevels, disk.ErrCorrupt)
	}
	for i := 0; i < nLevels && r.Err() == nil; i++ {
		m.levels = append(m.levels, levelRecord{
			slot:      r.U32(),
			n:         r.U64(),
			dataHead:  r.Page(),
			dataPages: r.Pages(),
			treePages: r.Pages(),
			bloomHead: r.Page(),
			bloomBits: r.U64(),
			treeMeta:  r.Bytes(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// BaseKindOf reads the base kind from the engine metadata blob, so the
// public layer can pick the base before recovering the tree.
func BaseKindOf(blob []byte) (byte, error) {
	c, err := disk.DecodeCommitRecord(blob, metaMagic)
	if err != nil {
		return 0, fmt.Errorf("lsm: %w", err)
	}
	return c.Kind, nil
}

// writeManifest persists m as a fresh blob chain and returns its head and
// the metadata blob that commits it.
func writeManifest(p disk.Pager, m *manifest) (head disk.PageID, blob []byte, err error) {
	c, blob, err := disk.WriteCommitted(p, metaMagic, m.baseKind, m.encode())
	if err != nil {
		return disk.InvalidPage, nil, fmt.Errorf("lsm: writing manifest: %w", err)
	}
	return c.Head, blob, nil
}

// readManifest loads and validates the manifest a metadata blob points at,
// returning it with its chain head.
func readManifest(p disk.Pager, blob []byte) (*manifest, disk.PageID, error) {
	c, raw, err := disk.ReadCommitted(p, blob, metaMagic)
	if err != nil {
		return nil, disk.InvalidPage, fmt.Errorf("lsm: reading manifest: %w", err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, disk.InvalidPage, err
	}
	if m.baseKind != c.Kind {
		return nil, disk.InvalidPage, fmt.Errorf("lsm: manifest base kind %d != metadata base kind %d: %w", m.baseKind, c.Kind, disk.ErrCorrupt)
	}
	return m, c.Head, nil
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
	record.SortXYID(pts, nil)
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

// readTombChain loads a tombstone chain into a set, checking it against
// the manifest's record count and page count.
func readTombChain(p disk.Pager, head disk.PageID, count, pages int) (map[record.Point]bool, error) {
	tombs := make(map[record.Point]bool, count)
	read, err := disk.ScanChain(p, record.PointSize, head, func(rec []byte) bool {
		tombs[record.DecodePoint(rec)] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(tombs) != count {
		return nil, fmt.Errorf("lsm: tombstone chain holds %d records, manifest says %d: %w", len(tombs), count, disk.ErrCorrupt)
	}
	if read != pages {
		return nil, fmt.Errorf("lsm: tombstone chain spans %d pages, manifest says %d: %w", read, pages, disk.ErrCorrupt)
	}
	return tombs, nil
}
