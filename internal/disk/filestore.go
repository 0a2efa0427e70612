package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// FileStore is a Pager backed by a real byte device (an os file, or any
// File), for running any of the structures against persistent storage
// instead of the in-memory simulator. The I/O accounting is identical, so
// bounds measured on a Store hold unchanged on a FileStore.
//
// On-disk format (version 2 — crash-consistent):
//
//   - Two fixed 64-byte superblock slots at offsets 0 and 64, each holding
//     (magic, version, page size, epoch, page count, free-list head, app
//     head) plus a CRC32C over the fields. Superblock updates alternate
//     between the slots with a monotonically increasing epoch, so a torn
//     superblock write destroys at most one slot and Open falls back to the
//     other: metadata updates are atomic.
//   - Pages addressed as PageID 0..n-1 at byte offset (1+id)*pageSize. The
//     last 4 bytes of every page hold a CRC32C over the payload and the page
//     id, so a torn page write (or a misdirected one) is detected at read
//     time instead of silently returning wrong bytes. PageSize() therefore
//     reports the reduced usable size (pageSize - 4): B and all packing
//     arithmetic derive from it exactly.
//   - Freed pages form an intrusive on-disk free list: the first 12 bytes of
//     a free page are the next free page id plus a CRC32C over that pointer
//     and the page id, so a torn free-list update is detected when the list
//     is walked.
//
// Every integrity failure is reported as an error wrapping ErrCorrupt; the
// store never returns unverified bytes.
//
// Locking: Read takes only the read side of mu, so concurrent readers'
// preads and checksum checks overlap. Sync takes the read side too: an
// fsync changes no byte and no allocation state, so a WAL writer's fsync
// never stalls a query's page reads. Everything that changes the file or
// the allocation state — Alloc, Free, Write, SetAppHead, Close — takes mu
// exclusively, so a read and a write of one page never overlap, a reader
// can never observe a torn page, and Close waits for an in-flight Sync.
// The I/O counters are atomics for the same reason: readers bump them
// under the shared lock.
type FileStore struct {
	mu       sync.RWMutex
	f        File
	pageSize int // physical page slot size; usable payload is 4 bytes less
	epoch    uint64
	numPages int64 // allocated-or-freed page slots in the file
	freeHead PageID
	appHead  PageID          // application metadata page (index headers)
	freeSet  map[PageID]bool // guards against double free / read-after-free

	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
}

// ErrCorrupt is wrapped by every integrity failure: a page or superblock
// checksum mismatch, a truncated file, an inconsistent free list, or
// malformed metadata. Callers classify recovery outcomes with
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("disk: corrupt data")

const fileMagic = 0x0032656863616370 // "pcache2\0", little-endian

const (
	fileFormatVersion = 2
	superSlotSize     = 64 // two slots precede the first page
	superSize         = 52 // encoded superblock bytes within a slot
	pageTrailerSize   = 4  // CRC32C over payload + page id
	freeStubSize      = 12 // next pointer + CRC32C over pointer + page id

	// MinFilePageSize is the smallest physical page a FileStore accepts: the
	// two superblock slots must fit before the first page, and the usable
	// payload (pageSize - 4) must still satisfy MinPageSize.
	MinFilePageSize = 2 * superSlotSize

	// maxOpenPageSize bounds the page size Open will believe from a header,
	// so a corrupted or hostile image cannot induce absurd allocations.
	maxOpenPageSize = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errClosed = errors.New("disk: file store closed")

// pageCRC checksums a page payload bound to its id, so a page written to the
// wrong offset fails verification too. The id's eight little-endian bytes
// are folded in with the table loop crc32 itself uses for short inputs:
// handing crc32.Update a slice of a local array would move the array to
// the heap on every read.
func pageCRC(id PageID, payload []byte) uint32 {
	c := ^crc32.Update(0, crcTable, payload)
	for v, i := uint64(id), 0; i < 8; v, i = v>>8, i+1 {
		c = crcTable[byte(c)^byte(v)] ^ (c >> 8)
	}
	return ^c
}

// stubCRC checksums a free-list pointer bound to the page holding it.
func stubCRC(id PageID, next PageID) uint32 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(next))
	binary.LittleEndian.PutUint64(b[8:16], uint64(id))
	return crc32.Update(0, crcTable, b[:])
}

func validFilePageSize(pageSize int) error {
	if pageSize < MinFilePageSize || pageSize-pageTrailerSize < MinPageSize {
		return fmt.Errorf("%w: %d < %d", ErrPageSize, pageSize, MinFilePageSize)
	}
	return nil
}

// CreateFileStore creates (or truncates) a file store at path.
func CreateFileStore(path string, pageSize int) (*FileStore, error) {
	if err := validFilePageSize(pageSize); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	fs, err := CreateFileStoreOn(OSFile{f}, pageSize)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// CreateFileStoreOn creates a file store on an arbitrary backing File (an
// in-memory image, a fault injector, ...). The store takes ownership of f.
func CreateFileStoreOn(f File, pageSize int) (*FileStore, error) {
	if err := validFilePageSize(pageSize); err != nil {
		return nil, err
	}
	fs := &FileStore{f: f, pageSize: pageSize, freeHead: InvalidPage, appHead: InvalidPage, freeSet: map[PageID]bool{}}
	// Both slots start at epoch 0 so a valid copy exists no matter which slot
	// the first real update lands in.
	enc := fs.encodeSuper()
	for slot := int64(0); slot < 2; slot++ {
		if _, err := f.WriteAt(enc, slot*superSlotSize); err != nil {
			return nil, fmt.Errorf("disk: writing superblock slot %d: %w", slot, err)
		}
	}
	return fs, nil
}

// OpenFileStore opens an existing file store.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fs, err := OpenFileStoreOn(OSFile{f})
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// superblock is one decoded slot.
type superblock struct {
	pageSize int
	epoch    uint64
	numPages int64
	freeHead PageID
	appHead  PageID
}

// decodeSuper validates one superblock slot against the file size. It
// reports ok=false for a slot that is torn, truncated, or inconsistent, and
// hasMagic so Open can tell a foreign file from a corrupt store.
func decodeSuper(b []byte, fileSize int64) (sb superblock, ok, hasMagic bool) {
	if len(b) < superSize {
		return sb, false, false
	}
	if binary.LittleEndian.Uint64(b[0:8]) != fileMagic {
		return sb, false, false
	}
	hasMagic = true
	if binary.LittleEndian.Uint32(b[8:12]) != fileFormatVersion {
		return sb, false, true
	}
	if crc32.Checksum(b[:superSize-4], crcTable) != binary.LittleEndian.Uint32(b[superSize-4:superSize]) {
		return sb, false, true
	}
	sb = superblock{
		pageSize: int(binary.LittleEndian.Uint32(b[12:16])),
		epoch:    binary.LittleEndian.Uint64(b[16:24]),
		numPages: int64(binary.LittleEndian.Uint64(b[24:32])),
		freeHead: PageID(binary.LittleEndian.Uint64(b[32:40])),
		appHead:  PageID(binary.LittleEndian.Uint64(b[40:48])),
	}
	if sb.pageSize > maxOpenPageSize || validFilePageSize(sb.pageSize) != nil {
		return sb, false, true
	}
	if sb.numPages < 0 || sb.numPages > fileSize/int64(sb.pageSize) {
		return sb, false, true
	}
	if sb.numPages > 0 && fileSize < (1+sb.numPages)*int64(sb.pageSize) {
		return sb, false, true
	}
	inRange := func(id PageID) bool { return id == InvalidPage || (id >= 0 && int64(id) < sb.numPages) }
	if !inRange(sb.freeHead) || !inRange(sb.appHead) {
		return sb, false, true
	}
	return sb, true, true
}

// OpenFileStoreOn opens an existing file store over an arbitrary backing
// File. It picks the newest valid superblock slot (recovering from a torn
// superblock write), then rebuilds and verifies the free list; any
// inconsistency fails with a wrapped ErrCorrupt. On success the store takes
// ownership of f.
func OpenFileStoreOn(f File) (*FileStore, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("disk: sizing store file: %w", err)
	}
	var best superblock
	valid, anyMagic := false, false
	slots := make([]byte, 2*superSlotSize)
	// A short read is fine: decodeSuper rejects truncated slots.
	if n, rerr := f.ReadAt(slots, 0); rerr != nil && n < superSize && !errors.Is(rerr, io.EOF) {
		return nil, fmt.Errorf("disk: reading superblocks: %w", rerr)
	} else {
		slots = slots[:n]
	}
	for slot := 0; slot < 2; slot++ {
		lo := slot * superSlotSize
		if lo > len(slots) {
			break
		}
		hi := lo + superSize
		if hi > len(slots) {
			hi = len(slots)
		}
		sb, ok, hasMagic := decodeSuper(slots[lo:hi], size)
		anyMagic = anyMagic || hasMagic
		if ok && (!valid || sb.epoch > best.epoch) {
			best, valid = sb, true
		}
	}
	if !valid {
		if !anyMagic {
			return nil, fmt.Errorf("disk: not a pathcache file store: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("disk: no intact superblock (both slots torn or stale): %w", ErrCorrupt)
	}
	fs := &FileStore{
		f:        f,
		pageSize: best.pageSize,
		epoch:    best.epoch,
		numPages: best.numPages,
		freeHead: best.freeHead,
		appHead:  best.appHead,
		freeSet:  map[PageID]bool{},
	}
	// Rebuild the free set by walking the on-disk free list. The walk is
	// bounded by numPages and every stub is checksum-verified, so a torn
	// free-list update, a cycle, or an out-of-range pointer all surface as
	// ErrCorrupt instead of corrupting allocation state.
	for id := fs.freeHead; id != InvalidPage; {
		if id < 0 || int64(id) >= fs.numPages {
			return nil, fmt.Errorf("disk: free list points at page %d outside 0..%d: %w", id, fs.numPages-1, ErrCorrupt)
		}
		if fs.freeSet[id] {
			return nil, fmt.Errorf("disk: free list cycles back to page %d: %w", id, ErrCorrupt)
		}
		next, err := fs.readFreeStub(id)
		if err != nil {
			return nil, err
		}
		fs.freeSet[id] = true
		id = next
	}
	return fs, nil
}

func (fs *FileStore) offset(id PageID) int64 {
	return int64(fs.pageSize) * (int64(id) + 1)
}

// usable is the per-page payload size: the physical page minus the checksum
// trailer. All packing arithmetic (B, chain capacities) derives from it.
func (fs *FileStore) usable() int { return fs.pageSize - pageTrailerSize }

// encodeSuper serializes the current metadata with its checksum.
func (fs *FileStore) encodeSuper() []byte {
	b := make([]byte, superSize)
	binary.LittleEndian.PutUint64(b[0:8], fileMagic)
	binary.LittleEndian.PutUint32(b[8:12], fileFormatVersion)
	binary.LittleEndian.PutUint32(b[12:16], uint32(fs.pageSize))
	binary.LittleEndian.PutUint64(b[16:24], fs.epoch)
	binary.LittleEndian.PutUint64(b[24:32], uint64(fs.numPages))
	binary.LittleEndian.PutUint64(b[32:40], uint64(fs.freeHead))
	binary.LittleEndian.PutUint64(b[40:48], uint64(fs.appHead))
	binary.LittleEndian.PutUint32(b[superSize-4:superSize], crc32.Checksum(b[:superSize-4], crcTable))
	return b
}

// writeSuper persists the superblock into the slot its next epoch selects,
// leaving the previous epoch's slot intact: a crash mid-write costs at most
// the update in flight, never the metadata. Caller holds fs.mu (or is the
// constructor).
func (fs *FileStore) writeSuper() error {
	fs.epoch++
	slot := int64(fs.epoch % 2)
	if _, err := fs.f.WriteAt(fs.encodeSuper(), slot*superSlotSize); err != nil {
		return fmt.Errorf("disk: writing superblock slot %d (epoch %d): %w", slot, fs.epoch, err)
	}
	return nil
}

// readFreeStub reads and verifies the free-list pointer stored in page id.
// Caller holds fs.mu (or is the opener).
func (fs *FileStore) readFreeStub(id PageID) (PageID, error) {
	stub := make([]byte, freeStubSize)
	if _, err := fs.f.ReadAt(stub, fs.offset(id)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return InvalidPage, fmt.Errorf("disk: free page %d truncated: %w", id, ErrCorrupt)
		}
		return InvalidPage, fmt.Errorf("disk: reading free page %d: %w", id, err)
	}
	next := PageID(binary.LittleEndian.Uint64(stub[0:8]))
	if binary.LittleEndian.Uint32(stub[8:12]) != stubCRC(id, next) {
		return InvalidPage, fmt.Errorf("disk: free page %d pointer checksum mismatch: %w", id, ErrCorrupt)
	}
	return next, nil
}

// writeFreeStub links page id to next on the on-disk free list. Caller holds
// fs.mu.
func (fs *FileStore) writeFreeStub(id PageID, next PageID) error {
	stub := make([]byte, freeStubSize)
	binary.LittleEndian.PutUint64(stub[0:8], uint64(next))
	binary.LittleEndian.PutUint32(stub[8:12], stubCRC(id, next))
	if _, err := fs.f.WriteAt(stub, fs.offset(id)); err != nil {
		return fmt.Errorf("disk: writing free stub on page %d: %w", id, err)
	}
	return nil
}

// writePage seals the payload with its checksum trailer and writes the full
// physical page. Caller holds fs.mu.
func (fs *FileStore) writePage(id PageID, payload []byte) error {
	slotBuf := make([]byte, fs.pageSize)
	copy(slotBuf, payload[:fs.usable()])
	binary.LittleEndian.PutUint32(slotBuf[fs.pageSize-pageTrailerSize:], pageCRC(id, slotBuf[:fs.usable()]))
	if _, err := fs.f.WriteAt(slotBuf, fs.offset(id)); err != nil {
		return fmt.Errorf("disk: writing page %d: %w", id, err)
	}
	return nil
}

// readPage reads the full physical page into a pooled slot buffer and
// verifies its checksum before copying out the payload. Caller holds fs.mu
// (either side).
func (fs *FileStore) readPage(id PageID, payload []byte) error {
	bp := GetPageBuf(fs.pageSize)
	defer PutPageBuf(bp)
	slotBuf := *bp
	if _, err := fs.f.ReadAt(slotBuf, fs.offset(id)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("disk: page %d truncated: %w", id, ErrCorrupt)
		}
		return fmt.Errorf("disk: reading page %d: %w", id, err)
	}
	want := binary.LittleEndian.Uint32(slotBuf[fs.pageSize-pageTrailerSize:])
	if got := pageCRC(id, slotBuf[:fs.usable()]); got != want {
		return fmt.Errorf("disk: page %d checksum mismatch (stored %08x, computed %08x): %w", id, want, got, ErrCorrupt)
	}
	copy(payload[:fs.usable()], slotBuf)
	return nil
}

// SetAppHead records the application's metadata page (e.g. a serialized
// index header) in the superblock.
func (fs *FileStore) SetAppHead(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return errClosed
	}
	fs.appHead = id
	return fs.writeSuper()
}

// AppHead returns the application's metadata page, or InvalidPage.
func (fs *FileStore) AppHead() PageID {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.appHead
}

// PageSize implements Pager. It reports the usable payload size — the
// physical page minus the checksum trailer — so B is derived from the bytes
// a page can actually carry.
func (fs *FileStore) PageSize() int { return fs.pageSize - pageTrailerSize }

// Alloc implements Pager.
func (fs *FileStore) Alloc() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return InvalidPage, errClosed
	}
	fs.allocs.Add(1)
	zero := make([]byte, fs.usable())
	if fs.freeHead != InvalidPage {
		id := fs.freeHead
		next, err := fs.readFreeStub(id)
		if err != nil {
			return InvalidPage, err
		}
		// Zero the reused page (matching Store semantics) before the
		// superblock commits the pop: a crash in between leaves the page on
		// the free list with a destroyed stub, which the next Open reports
		// as ErrCorrupt instead of silently mis-allocating.
		if err := fs.writePage(id, zero); err != nil {
			return InvalidPage, err
		}
		fs.freeHead = next
		delete(fs.freeSet, id)
		return id, fs.writeSuper()
	}
	id := PageID(fs.numPages)
	if err := fs.writePage(id, zero); err != nil {
		return InvalidPage, err
	}
	fs.numPages++
	return id, fs.writeSuper()
}

// Free implements Pager.
func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return errClosed
	}
	if id < 0 || int64(id) >= fs.numPages {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	if fs.freeSet[id] {
		return fmt.Errorf("%w: %d", ErrDoubleUse, id)
	}
	if err := fs.writeFreeStub(id, fs.freeHead); err != nil {
		return err
	}
	fs.freeHead = id
	fs.freeSet[id] = true
	fs.frees.Add(1)
	return fs.writeSuper()
}

// Read implements Pager. The page checksum is verified before any byte is
// returned; a torn or misdirected write surfaces as a wrapped ErrCorrupt.
// Readers share fs.mu, so concurrent reads never wait for each other.
func (fs *FileStore) Read(id PageID, buf []byte) error {
	if len(buf) < fs.PageSize() {
		return ErrShortBuf
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.f == nil {
		return errClosed
	}
	if id < 0 || int64(id) >= fs.numPages || fs.freeSet[id] {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	fs.reads.Add(1)
	return fs.readPage(id, buf)
}

// Write implements Pager.
func (fs *FileStore) Write(id PageID, buf []byte) error {
	if len(buf) < fs.PageSize() {
		return ErrShortBuf
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return errClosed
	}
	if id < 0 || int64(id) >= fs.numPages || fs.freeSet[id] {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	fs.writes.Add(1)
	return fs.writePage(id, buf)
}

// NumPages reports the number of live pages.
func (fs *FileStore) NumPages() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return int(fs.numPages) - len(fs.freeSet)
}

// Stats returns a snapshot of the I/O counters. It takes no lock.
func (fs *FileStore) Stats() Stats {
	return Stats{Reads: fs.reads.Load(), Writes: fs.writes.Load(), Allocs: fs.allocs.Load(), Frees: fs.frees.Load()}
}

// ResetStats zeroes the I/O counters.
func (fs *FileStore) ResetStats() {
	fs.reads.Store(0)
	fs.writes.Store(0)
	fs.allocs.Store(0)
	fs.frees.Store(0)
}

// Sync flushes the file to stable storage. It takes only the read side of
// mu: an fsync changes neither the file's bytes nor the allocation state,
// so page reads proceed beside it; writers and Close still wait for it,
// and every File allows its methods to run concurrently.
func (fs *FileStore) Sync() error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.f == nil {
		return errClosed
	}
	return fs.f.Sync()
}

// Close syncs and closes the file. The store is unusable afterwards.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	if err := fs.f.Sync(); err != nil {
		//pcvet:allow lockheldio(fs.mu.Lock) -- terminal teardown under fs.mu keeps close-vs-access ordering simple
		if cerr := fs.f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		fs.f = nil
		return err
	}
	//pcvet:allow lockheldio(fs.mu.Lock) -- terminal teardown under fs.mu keeps close-vs-access ordering simple
	err := fs.f.Close()
	fs.f = nil
	return err
}

// VerifyReport summarizes a full integrity scan of a FileStore.
type VerifyReport struct {
	Epoch       uint64 // superblock epoch in effect
	PageSize    int    // physical page size in bytes
	Usable      int    // payload bytes per page (PageSize - checksum trailer)
	Slots       int64  // allocated-or-freed page slots in the file
	Live        int    // pages holding data
	Free        int    // pages on the free list
	PagesOK     int    // live pages whose checksum verified
	FreeStubsOK int    // free pages whose pointer checksum verified
}

// Verify checks every page of the store against its checksum and re-walks
// the free list, without disturbing the I/O counters. It returns the scan
// summary and, on the first integrity failure, an error wrapping ErrCorrupt
// that names the offending page. A store that passes Verify serves every
// read without a checksum error.
func (fs *FileStore) Verify() (VerifyReport, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	rep := VerifyReport{
		Epoch:    fs.epoch,
		PageSize: fs.pageSize,
		Usable:   fs.pageSize - pageTrailerSize,
		Slots:    fs.numPages,
		Live:     int(fs.numPages) - len(fs.freeSet),
		Free:     len(fs.freeSet),
	}
	if fs.f == nil {
		return rep, errClosed
	}
	payload := make([]byte, fs.usable())
	for id := PageID(0); int64(id) < fs.numPages; id++ {
		if fs.freeSet[id] {
			if _, err := fs.readFreeStub(id); err != nil {
				return rep, err
			}
			rep.FreeStubsOK++
			continue
		}
		if err := fs.readPage(id, payload); err != nil {
			return rep, err
		}
		rep.PagesOK++
	}
	return rep, nil
}
