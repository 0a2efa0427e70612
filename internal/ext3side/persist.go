package ext3side

import (
	"math/bits"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Meta is the reopen metadata of a 3-sided tree.
type Meta struct {
	N          int
	BlockPages int
	CachePages int
	Skel       skeletal.Meta
}

const metaMagic = uint32(0x74736431) // "tsd1"

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{
		N:          t.n,
		BlockPages: t.blockPages,
		CachePages: t.cachePages,
		Skel:       t.skel.Meta(),
	}
}

// Encode serializes the meta.
func (m Meta) Encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 64)}
	w.U32(metaMagic)
	w.Int(m.N)
	w.Int(m.BlockPages)
	w.Int(m.CachePages)
	m.Skel.Put(&w)
	return w.Buf
}

// DecodeMeta deserializes a meta blob produced by Encode.
func DecodeMeta(buf []byte) (Meta, error) {
	r := disk.NewFieldReader("ext3side: meta", buf)
	r.Magic(metaMagic)
	m := Meta{
		N:          r.Int(),
		BlockPages: r.Int(),
		CachePages: r.Int(),
		Skel:       skeletal.ReadMeta(&r),
	}
	return m, r.Err()
}

// Reopen attaches to a previously built tree persisted on p.
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	skel, b, err := skeletal.ReopenEngine(p, m.Skel, "ext3side", record.PointSize, payloadSize)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pager:      p,
		skel:       skel,
		b:          b,
		n:          m.N,
		blockPages: m.BlockPages,
		cachePages: m.CachePages,
	}
	t.segLen = bits.Len(uint(b)) - 1
	if t.segLen < 1 {
		t.segLen = 1
	}
	return t, nil
}
