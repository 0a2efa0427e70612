package extint

import (
	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Meta is the reopen metadata of an external interval tree.
type Meta struct {
	Variant    Variant
	N          int
	ListPages  int
	CachePages int
	LocalPages int
	Skel       skeletal.Meta
}

const metaMagic = uint32(0x69747631) // "itv1"

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{
		Variant:    t.variant,
		N:          t.n,
		ListPages:  t.listPages,
		CachePages: t.cachePages,
		LocalPages: t.localPages,
		Skel:       t.skel.Meta(),
	}
}

// Encode serializes the meta.
func (m Meta) Encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 64)}
	w.U32(metaMagic)
	w.U32(uint32(m.Variant))
	w.Int(m.N)
	w.Int(m.ListPages)
	w.Int(m.CachePages)
	w.Int(m.LocalPages)
	m.Skel.Put(&w)
	return w.Buf
}

// DecodeMeta deserializes a meta blob produced by Encode.
func DecodeMeta(buf []byte) (Meta, error) {
	r := disk.NewFieldReader("extint: meta", buf)
	r.Magic(metaMagic)
	m := Meta{
		Variant:    Variant(r.U32()),
		N:          r.Int(),
		ListPages:  r.Int(),
		CachePages: r.Int(),
		LocalPages: r.Int(),
		Skel:       skeletal.ReadMeta(&r),
	}
	return m, r.Err()
}

// Reopen attaches to a previously built tree persisted on p.
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	skel, b, err := skeletal.ReopenEngine(p, m.Skel, "extint", record.IntervalSize, payloadSize)
	if err != nil {
		return nil, err
	}
	return &Tree{
		pager:      p,
		variant:    m.Variant,
		skel:       skel,
		b:          b,
		n:          m.N,
		listPages:  m.ListPages,
		cachePages: m.CachePages,
		localPages: m.LocalPages,
	}, nil
}
