// Package extwindow answers general (4-sided) window queries
// {x1 <= x <= x2, y1 <= y <= y2} — the outermost query class of the paper's
// Figure 1. The paper leaves general 2-dimensional search open (optimal
// external 4-sided search arrived only years later); this package is the
// repository's extension beyond the paper: an external range tree with
// per-node page directories.
//
// Structure: a binary tree over x with fat leaves of B points; every
// internal node stores its subtree's points in a y-ascending blocked list
// plus a small directory of (page, first-y) entries. A query decomposes
// [x1, x2] into O(log(n/B)) canonical subtrees; for each, the directory
// locates the first page reaching y1 and the scan stops past y2, so each
// canonical node costs O(1 + t_i/B) I/Os after O(log_B n) descent pages:
// O(log(n/B) + t/B) total, with O((n/B)·log(n/B)) pages of storage.
package extwindow

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pathcache/internal/disk"
	"pathcache/internal/pstcore"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Node payload: ylist head(8) + count(4) + directory head(8) + dir count(4).
const payloadSize = 24

// dirRec is one directory entry: page id (8) + first y on that page (8).
const dirRecSize = 16

// Tree is a static external range tree for 4-sided window queries.
type Tree struct {
	pager disk.Pager
	skel  *skeletal.Tree
	b     int
	n     int

	listPages int
	dirPages  int
}

// buildNode carries the per-node y-sorted points during construction.
type buildNode struct {
	pts         []record.Point // y-ascending
	split       int64
	left, right *buildNode
}

// Build constructs the tree over pts. The input slice is not retained or
// modified.
func Build(p disk.Pager, pts []record.Point) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("extwindow: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	t := &Tree{pager: p, b: b, n: len(pts)}
	if len(pts) == 0 {
		skel, err := skeletal.Build(p, nil, payloadSize)
		if err != nil {
			return nil, err
		}
		t.skel = skel
		return t, nil
	}
	root := buildMem(pstcore.SortedAsc(pts), b)
	bn, err := t.persist(root)
	if err != nil {
		return nil, err
	}
	skel, err := skeletal.Build(p, bn, payloadSize)
	if err != nil {
		return nil, err
	}
	t.skel = skel
	return t, nil
}

// buildMem builds the x-tree bottom-up, merging children's y-sorted lists.
func buildMem(sorted []record.Point, b int) *buildNode {
	n := &buildNode{}
	if len(sorted) <= b {
		n.pts = append([]record.Point(nil), sorted...)
		slices.SortFunc(n.pts, yAsc)
		n.split = sorted[len(sorted)/2].X
		return n
	}
	mid := len(sorted) / 2
	n.split = sorted[mid].X
	n.left = buildMem(sorted[:mid], b)
	n.right = buildMem(sorted[mid:], b)
	n.pts = mergeByY(n.left.pts, n.right.pts)
	return n
}

// yAsc is the reverse of record.CmpYDesc: increasing y, ties by
// decreasing (X, Y, ID) point order.
func yAsc(p, q record.Point) int { return record.CmpYDesc(q, p) }

// mergeByY merges two y-ascending lists.
func mergeByY(a, b []record.Point) []record.Point {
	out := make([]record.Point, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Y <= b[j].Y {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// persist writes each node's y-list and directory.
func (t *Tree) persist(n *buildNode) (*skeletal.BuildNode, error) {
	if n == nil {
		return nil, nil
	}
	w, err := disk.NewChainWriter(t.pager, record.PointSize)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, record.PointSize)
	for _, p := range n.pts {
		p.Encode(rec)
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
	head, pages, _, err := w.Close()
	if err != nil {
		return nil, err
	}
	t.listPages += pages

	// Directory: (page, first y) per chain page.
	ids := w.Pages()
	dir := make([]byte, 0, len(ids)*dirRecSize)
	perPage := t.b
	for i, id := range ids {
		var ent [dirRecSize]byte
		binary.LittleEndian.PutUint64(ent[0:], uint64(id))
		binary.LittleEndian.PutUint64(ent[8:], uint64(n.pts[i*perPage].Y))
		dir = append(dir, ent[:]...)
	}
	dirHead, dirPages, err := disk.WriteChain(t.pager, dirRecSize, dir)
	if err != nil {
		return nil, err
	}
	t.dirPages += dirPages

	payload := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(payload[0:], uint64(head))
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(n.pts)))
	binary.LittleEndian.PutUint64(payload[12:], uint64(dirHead))
	binary.LittleEndian.PutUint32(payload[20:], uint32(len(ids)))

	bn := &skeletal.BuildNode{Key: n.split, Payload: payload}
	if bn.Left, err = t.persist(n.left); err != nil {
		return nil, err
	}
	if bn.Right, err = t.persist(n.right); err != nil {
		return nil, err
	}
	return bn, nil
}

func plYList(p []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[0:])), int(binary.LittleEndian.Uint32(p[8:]))
}
func plDir(p []byte) (disk.PageID, int) {
	return disk.PageID(binary.LittleEndian.Uint64(p[12:])), int(binary.LittleEndian.Uint32(p[20:]))
}

// Len reports the number of indexed points.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// SpacePages breaks down storage: skeleton, y-lists, directories.
func (t *Tree) SpacePages() (skeleton, lists, dirs int) {
	return t.skel.NumPages(), t.listPages, t.dirPages
}

// TotalPages is the complete storage footprint in pages.
func (t *Tree) TotalPages() int {
	return t.skel.NumPages() + t.listPages + t.dirPages
}

// Meta is the reopen metadata of a window tree.
type Meta struct {
	N         int
	ListPages int
	DirPages  int
	Skel      skeletal.Meta
}

const metaMagic = uint32(0x77696e31) // "win1"

// Meta returns the tree's reopen metadata.
func (t *Tree) Meta() Meta {
	return Meta{N: t.n, ListPages: t.listPages, DirPages: t.dirPages, Skel: t.skel.Meta()}
}

// Encode serializes the meta.
func (m Meta) Encode() []byte {
	w := disk.FieldWriter{Buf: make([]byte, 0, 64)}
	w.U32(metaMagic)
	w.Int(m.N)
	w.Int(m.ListPages)
	w.Int(m.DirPages)
	m.Skel.Put(&w)
	return w.Buf
}

// DecodeMeta deserializes a meta blob produced by Encode.
func DecodeMeta(buf []byte) (Meta, error) {
	r := disk.NewFieldReader("extwindow: meta", buf)
	r.Magic(metaMagic)
	m := Meta{N: r.Int(), ListPages: r.Int(), DirPages: r.Int(), Skel: skeletal.ReadMeta(&r)}
	return m, r.Err()
}

// Reopen attaches to a previously built tree persisted on p.
func Reopen(p disk.Pager, m Meta) (*Tree, error) {
	skel, b, err := skeletal.ReopenEngine(p, m.Skel, "extwindow", record.PointSize, payloadSize)
	if err != nil {
		return nil, err
	}
	return &Tree{pager: p, skel: skel, b: b, n: m.N, listPages: m.ListPages, dirPages: m.DirPages}, nil
}
