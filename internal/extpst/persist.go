package extpst

import (
	"fmt"
	"math/bits"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Meta is the reopen metadata of a flat (IKO/Basic/Segmented) tree. The
// recursive schemes keep per-region sub-structure tables in memory and are
// not persistable; rebuild them on open.
type Meta struct {
	Scheme     Scheme
	N          int
	SegLen     int
	BlockPages int
	APages     int
	SPages     int
	Skel       skeletal.Meta
}

const metaMagic = uint32(0x70737431) // "pst1"

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{
		Scheme:     t.scheme,
		N:          t.n,
		SegLen:     t.segLen,
		BlockPages: t.blockPages,
		APages:     t.aPages,
		SPages:     t.sPages,
		Skel:       t.skel.Meta(),
	}
}

// Encode serializes the meta.
func (m Meta) Encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 64)}
	w.U32(metaMagic)
	w.U32(uint32(m.Scheme))
	w.Int(m.N)
	w.Int(m.BlockPages)
	w.Int(m.APages)
	w.Int(m.SPages)
	w.Int(m.SegLen)
	m.Skel.Put(&w)
	return w.Buf
}

// DecodeMeta deserializes a meta blob produced by Encode.
func DecodeMeta(buf []byte) (Meta, error) {
	r := disk.NewFieldReader("extpst: meta", buf)
	r.Magic(metaMagic)
	m := Meta{
		Scheme:     Scheme(r.U32()),
		N:          r.Int(),
		BlockPages: r.Int(),
		APages:     r.Int(),
		SPages:     r.Int(),
		SegLen:     r.Int(),
		Skel:       skeletal.ReadMeta(&r),
	}
	return m, r.Err()
}

// Reopen attaches to a previously built tree persisted on p.
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	switch m.Scheme {
	case IKO, Basic, Segmented:
	default:
		return nil, fmt.Errorf("extpst: scheme %v is not persistable", m.Scheme)
	}
	skel, b, err := skeletal.ReopenEngine(p, m.Skel, "extpst", record.PointSize, payloadSize)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pager:      p,
		skel:       skel,
		scheme:     m.Scheme,
		b:          b,
		n:          m.N,
		blockPages: m.BlockPages,
		aPages:     m.APages,
		sPages:     m.SPages,
	}
	t.segLen = segLenFor(b)
	if m.SegLen > 0 {
		t.segLen = m.SegLen
	}
	return t, nil
}

// segLenFor is the chunk length used at build time for page capacity b:
// floor(log2 b), at least 1.
func segLenFor(b int) int {
	s := bits.Len(uint(b)) - 1
	if s < 1 {
		return 1
	}
	return s
}
