package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pathcache/internal/disk"
)

// The metadata page makes an index file self-describing: one page holding a
// kind byte, a blob length, and the kind-specific metadata blob, reachable
// through the superblock's application head. Writing it is the commit point
// of a build — a crash before SetAppHead+Sync rolls the file back to
// ErrNoIndex.
//
// Errors raised here are user-facing and already carry the public package's
// "pathcache:" prefix, because the sentinels below are re-exported by the
// pathcache package and the texts predate this package. Callers must return
// them as-is, not wrap them again.

// ErrNoIndex reports a store file whose metadata head is unset: the file is
// structurally intact but no index build completed against it. A crash
// before the final metadata commit rolls the file back to this state.
var ErrNoIndex = errors.New("pathcache: file holds no index")

// ErrKindMismatch reports a file that holds a committed index of a
// different kind than the caller asked for (for example opening a segment
// file with the two-sided opener). Open the file with Open or the matching
// typed opener instead.
var ErrKindMismatch = errors.New("pathcache: index kind mismatch")

// SaveMeta commits an index header: kind byte, blob length and blob in a
// fresh page recorded as the application head, then a sync. It is a no-op
// for in-memory backends.
func (be *Backend) SaveMeta(kind byte, blob []byte) error {
	if be.file == nil {
		return nil // in-memory index: nothing to persist
	}
	page := make([]byte, be.file.PageSize())
	if 5+len(blob) > len(page) {
		return fmt.Errorf("pathcache: index metadata (%d bytes) exceeds one page", len(blob))
	}
	page[0] = kind
	binary.LittleEndian.PutUint32(page[1:5], uint32(len(blob)))
	copy(page[5:], blob)
	id, err := be.file.Alloc()
	if err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	if err := be.file.Write(id, page); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	if err := be.file.SetAppHead(id); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	if err := be.file.Sync(); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

// ReplaceMeta is SaveMeta for indexes that commit repeatedly: it writes
// back any buffer pool so every page the new metadata references is on
// disk before the commit point (charged to the operation p is the view of,
// as Sync does), writes the new metadata page, and frees the superseded
// one. The write tier calls this once per manifest flip; without
// the free, every flip would leak a page. A crash between SetAppHead and
// the free only leaks the old metadata page — never corrupts state.
//
// The pool stays warm across the flip. That is safe because the metadata
// page is the only page written or freed past the pool: SaveMeta and
// ReadKind reach it through the file directly, so the pool never holds a
// frame for it, and the direct Free cannot strand a cached copy.
func (be *Backend) ReplaceMeta(p disk.Pager, kind byte, blob []byte) error {
	if be.file == nil {
		return nil // in-memory index: nothing to persist
	}
	if err := be.writeBack(p); err != nil {
		return fmt.Errorf("pathcache: writing back pool before metadata commit: %w", err)
	}
	old := be.file.AppHead()
	if err := be.SaveMeta(kind, blob); err != nil {
		return err
	}
	if old != disk.InvalidPage {
		if err := be.file.Free(old); err != nil {
			return fmt.Errorf("pathcache: freeing superseded metadata page: %w", err)
		}
	}
	return nil
}

// Sync is the durability barrier update paths acknowledge writes behind:
// write back the buffer pool's dirty frames (when one is interposed, which
// stays warm) and fsync the backing file. p is the pager the operation
// running the barrier wrote through: when it is that operation's view of
// the pool (OpPager), the write-backs are charged to its counter, as every
// other transfer it causes is; any other pager, nil included, leaves them
// uncharged. In-memory backends treat it as a no-op.
func (be *Backend) Sync(p disk.Pager) error {
	if err := be.writeBack(p); err != nil {
		return err
	}
	if be.file == nil {
		return nil
	}
	return be.file.Sync()
}

// writeBack writes the pool's dirty frames to the store, through p when p
// is a pool view that charges them to its operation.
func (be *Backend) writeBack(p disk.Pager) error {
	if be.pool == nil {
		return nil
	}
	if v, ok := p.(interface{ WriteBack() error }); ok {
		return v.WriteBack()
	}
	return be.pool.WriteBack()
}

// ReadKind loads the metadata page and returns the kind byte and metadata
// blob without interpreting either — the primitive behind kind-agnostic
// open.
func (be *Backend) ReadKind() (byte, []byte, error) {
	head := be.file.AppHead()
	if head == disk.InvalidPage {
		return 0, nil, fmt.Errorf("%w: metadata head unset", ErrNoIndex)
	}
	page := make([]byte, be.file.PageSize())
	if err := be.file.Read(head, page); err != nil {
		return 0, nil, fmt.Errorf("pathcache: reading metadata page: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(page[1:5]))
	if 5+n > len(page) {
		return 0, nil, fmt.Errorf("pathcache: corrupt index metadata (blob length %d exceeds page): %w", n, disk.ErrCorrupt)
	}
	return page[0], page[5 : 5+n], nil
}

// ReadMeta is ReadKind restricted to one expected kind: it returns the
// metadata blob, or an error wrapping ErrKindMismatch naming both kinds
// when the file holds something else.
func (be *Backend) ReadMeta(want byte) ([]byte, error) {
	kind, blob, err := be.ReadKind()
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: file holds %s, not %s", ErrKindMismatch, KindName(kind), KindName(want))
	}
	return blob, nil
}

// MetaKind reads the kind byte of the metadata page of fs without
// interpreting the blob — the recovery-path helper behind VerifyFile,
// which opens the FileStore itself to scan checksums first.
func MetaKind(fs *disk.FileStore) (byte, error) {
	head := fs.AppHead()
	if head == disk.InvalidPage {
		return 0, fmt.Errorf("%w: metadata head unset", ErrNoIndex)
	}
	page := make([]byte, fs.PageSize())
	if err := fs.Read(head, page); err != nil {
		return 0, fmt.Errorf("pathcache: reading metadata page: %w", err)
	}
	return page[0], nil
}
