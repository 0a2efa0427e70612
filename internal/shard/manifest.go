package shard

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
)

// The shard map is a variable-length record (epoch, sequence, kinds, split
// keys, file names) persisted through the codec in internal/disk/codec.go,
// the one the write tier's manifest also uses (DESIGN.md §8/§11): Save
// writes the encoded map as a fresh blob chain named by a commit record
// {magic, content kind, chain head, byte length, CRC}, and the commit point
// is the engine metadata flip installing that record. The chain the
// superseded map used is freed only after the flip, so a crash on either
// side recovers a committed map — the old one before the flip landed, the
// new one after — and a torn write surfaces as a checksum error, never as
// a partial partition. The field list and both magics are this package's;
// the commitprotocol analyzer enforces the ordering on it.

// mapMagic versions the map encoding; mapMetaMagic versions the commit
// record naming it.
const (
	mapMagic     = 0x3170616d // "map1"
	mapMetaMagic = 0x4d647273 // "srdM"
)

// encodeMap serializes the map.
func encodeMap(m *Map) []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 64+16*len(m.Files))}
	w.U32(mapMagic)
	w.U64(m.Epoch)
	w.U64(m.Seq)
	w.U8(m.Kind)
	w.U8(m.Base)
	w.U32(uint32(len(m.Files)))
	for _, k := range m.Splits {
		w.U64(uint64(k))
	}
	for _, f := range m.Files {
		w.Bytes([]byte(f))
	}
	return w.Buf
}

// decodeMap parses raw into a validated map.
func decodeMap(raw []byte) (*Map, error) {
	r := disk.NewFieldReader("shard: map", raw)
	r.Magic(mapMagic)
	m := &Map{Epoch: r.U64(), Seq: r.U64(), Kind: r.U8(), Base: r.U8()}
	n := int(r.U32())
	if r.Err() == nil && (n <= 0 || n > MaxShards) {
		return nil, fmt.Errorf("shard: map names %d shards: %w", n, disk.ErrCorrupt)
	}
	for i := 0; i < n-1 && r.Err() == nil; i++ {
		m.Splits = append(m.Splits, int64(r.U64()))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Files = append(m.Files, string(r.Bytes()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, disk.ErrCorrupt)
	}
	return m, nil
}

// Save commits m to the shard-map backend with the write-all-new -> flip ->
// free-old discipline: the encoded map lands in a fresh chain, the metadata
// flip (ReplaceMeta: pool flush, double-buffered superblock write, sync)
// publishes it atomically, and only then is the superseded map's chain
// freed. A crash anywhere leaves the previously committed map (or, before
// the first commit, ErrNoIndex) loadable.
func Save(be *engine.Backend, m *Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	oldHead := disk.InvalidPage
	if kind, blob, err := be.ReadKind(); err == nil && kind == Kind {
		if c, err := disk.DecodeCommitRecord(blob, mapMetaMagic); err == nil {
			oldHead = c.Head
		}
	}
	_, blob, err := disk.WriteCommitted(be.Pager(), mapMetaMagic, m.Kind, encodeMap(m))
	if err != nil {
		return fmt.Errorf("shard: writing map: %w", err)
	}
	if err := be.ReplaceMeta(nil, Kind, blob); err != nil {
		return fmt.Errorf("shard: committing map: %w", err)
	}
	if oldHead != disk.InvalidPage {
		if err := disk.FreeChain(be.Pager(), oldHead); err != nil {
			return fmt.Errorf("shard: freeing superseded map chain: %w", err)
		}
	}
	return nil
}

// Load reads the committed map from the shard-map backend. A file whose
// build never committed surfaces engine.ErrNoIndex; a torn or inconsistent
// image fails with an error wrapping disk.ErrCorrupt.
func Load(be *engine.Backend) (*Map, error) {
	blob, err := be.ReadMeta(Kind)
	if err != nil {
		return nil, err
	}
	return LoadBlob(be, blob)
}

// LoadBlob decodes and validates the map a metadata blob points at — the
// registered-opener path, where the engine already read the blob.
func LoadBlob(be *engine.Backend, blob []byte) (*Map, error) {
	c, raw, err := disk.ReadCommitted(be.Pager(), blob, mapMetaMagic)
	if err != nil {
		return nil, fmt.Errorf("shard: reading map: %w", err)
	}
	m, err := decodeMap(raw)
	if err != nil {
		return nil, err
	}
	if m.Kind != c.Kind {
		return nil, fmt.Errorf("shard: map content kind %d != metadata kind %d: %w", m.Kind, c.Kind, disk.ErrCorrupt)
	}
	return m, nil
}
