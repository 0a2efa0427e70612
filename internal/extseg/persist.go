package extseg

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Meta is the reopen metadata of an external segment tree.
type Meta struct {
	Variant    Variant
	N          int
	Lo, Hi     int64
	CoverPages int
	LocalPages int
	CachePages int
	Skel       skeletal.Meta
}

const metaMagic = uint32(0x73656731) // "seg1"

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{
		Variant:    t.variant,
		N:          t.n,
		Lo:         t.lo,
		Hi:         t.hi,
		CoverPages: t.coverPages,
		LocalPages: t.localPages,
		CachePages: t.cachePages,
		Skel:       t.skel.Meta(),
	}
}

// Encode serializes the meta.
func (m Meta) Encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 80)}
	w.U32(metaMagic)
	w.U32(uint32(m.Variant))
	w.Int(m.N)
	w.U64(uint64(m.Lo))
	w.U64(uint64(m.Hi))
	w.Int(m.CoverPages)
	w.Int(m.LocalPages)
	w.Int(m.CachePages)
	m.Skel.Put(&w)
	return w.Buf
}

// DecodeMeta deserializes a meta blob produced by Encode.
func DecodeMeta(buf []byte) (Meta, error) {
	r := disk.NewFieldReader("extseg: meta", buf)
	r.Magic(metaMagic)
	m := Meta{
		Variant:    Variant(r.U32()),
		N:          r.Int(),
		Lo:         int64(r.U64()),
		Hi:         int64(r.U64()),
		CoverPages: r.Int(),
		LocalPages: r.Int(),
		CachePages: r.Int(),
		Skel:       skeletal.ReadMeta(&r),
	}
	return m, r.Err()
}

// Reopen attaches to a previously built tree persisted on p.
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	skel, b, err := skeletal.ReopenEngine(p, m.Skel, "extseg", record.IntervalSize, payloadSize)
	if err != nil {
		return nil, err
	}
	return &Tree{
		pager:      p,
		variant:    m.Variant,
		skel:       skel,
		b:          b,
		lo:         m.Lo,
		hi:         m.Hi,
		n:          m.N,
		coverPages: m.CoverPages,
		localPages: m.LocalPages,
		cachePages: m.CachePages,
	}, nil
}
