// Package dynpst implements the fully dynamic secondary-memory structure for
// 2-sided queries of Section 5 (Theorem 5.1): optimal O(log_B n + t/B)
// queries, amortized O(log_B n) insertions and deletions, and
// O((n/B)·log log B)-class storage.
//
// The design follows the paper's two-level view:
//
//   - The plane is decomposed by a priority search tree over regions of
//     ~B·log B points. Subtrees of height log B form super nodes; each super
//     node owns a directory page (the skeletal page read when a search
//     passes through) and an update buffer U of ~B operations. Each region
//     owns X/Y lists, chunk-scoped A/S caches (caches never cross a super
//     node boundary), a second-level static tree, and a local buffer u.
//   - Updates are logged at the root super node's U. When U overflows, its
//     operations trickle down: operations for regions inside the super node
//     rebuild those regions' lists immediately and are logged in u (which
//     defers only the second-level rebuild); operations bound deeper are
//     pushed into child super nodes' U buffers, cascading. Every ~B·log B
//     updates a super node re-levels its regions (keeping x-divisions,
//     moving y-lines, pushing surplus points down as logged inserts), and a
//     2x weight imbalance rebuilds the whole subtree.
//   - Queries run the static two-level algorithm and then merge the update
//     buffers along the corner path (and of any super node they enter),
//     newest operation winning per tuple ID.
//
// Documented deviations from the abstract (DESIGN.md §4): re-levelling
// pushes surplus points down but does not borrow points back up (underfull
// regions are tolerated until an imbalance rebuild), and rebuild I/Os flow
// through the same pager as everything else.
package dynpst

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pathcache/internal/disk"
	"pathcache/internal/extpst"
	"pathcache/internal/pstcore"
	"pathcache/internal/record"
)

// op is one buffered update.
type op struct {
	insert bool
	p      record.Point
}

// opSize is the encoded size of an op: kind(1) + pad(7) + point(24).
const opSize = 32

func encodeOp(o op, buf []byte) {
	if o.insert {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	o.p.Encode(buf[8:])
}

func decodeOp(buf []byte) op {
	return op{insert: buf[0] == 1, p: record.DecodePoint(buf[8:])}
}

// buffer is a disk-backed operation log with an in-memory mirror. Appends
// rewrite the chain (a page or two); reads charge the chain length.
type buffer struct {
	head  disk.PageID
	pages int
	ops   []op
}

// region is one node of the dynamic priority search tree.
type region struct {
	depth   int
	split   int64
	splitPt record.Point // full split point; left holds exactly points Less than it
	parent  *region
	left    *region
	right   *region
	dead    bool // set when a subtree rebuild destroyed this region

	// List state (the region's authoritative point set).
	count     int
	minY      int64 // MaxInt64 when empty
	firstXMin int64 // min x within the first X block
	firstYMin int64 // min y within the first Y block
	xHead     disk.PageID
	xPages    int
	yHead     disk.PageID
	yPages    int

	// Chunk-scoped caches (ancestor first-X blocks, x-descending; right
	// sibling first-Y blocks, y-descending).
	aHead  disk.PageID
	aPages int
	aCount int
	sHead  disk.PageID
	sPages int
	sCount int

	// Second-level structure over the region's points; u logs operations
	// already merged into the lists but not yet into sub.
	sub *extpst.Tree
	u   buffer

	weight int // list points in this subtree

	// Super-node state (regions at depth % segLen == 0 only).
	sn *supernode
}

// supernode holds the shared state of one height-segLen subtree.
type supernode struct {
	u        buffer // the U update buffer
	dirHead  disk.PageID
	dirPages int
	updates  int // operations distributed since the last re-level
}

// Tree is the dynamic 2-sided index. Not safe for concurrent use.
type Tree struct {
	pager     disk.Pager
	b         int // points per page
	segLen    int // super-node height and cache chunk length: log B - log log B
	regionCap int // target region size (B·log B)
	opCap     int // buffer capacity in operations (one page of ops)
	root      *region
	n         int
}

// QueryStats profiles one query.
type QueryStats struct {
	DirPages    int
	BufferPages int
	ListPages   int
	Results     int
}

// New creates an empty dynamic tree on p.
func New(p disk.Pager) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("dynpst: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	t := &Tree{pager: p, b: b}
	logB := bits.Len(uint(b)) - 1
	if logB < 1 {
		logB = 1
	}
	// The paper's super-node height is log B - log log B, giving B/log B
	// regions per super node so that refreshing every cache in a super node
	// costs O(B) I/Os — O(1) amortized per distributed update. Region size
	// stays B·log B.
	t.segLen = logB - (bits.Len(uint(logB)) - 1)
	if t.segLen < 1 {
		t.segLen = 1
	}
	t.regionCap = b * logB
	t.opCap = disk.ChainCap(p.PageSize(), opSize)
	if t.opCap < 2 {
		return nil, fmt.Errorf("dynpst: page size %d holds %d ops; need >= 2", p.PageSize(), t.opCap)
	}
	root, err := t.newRegion(0, nil)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// newRegion allocates an empty region, attaching super-node state at chunk
// boundaries.
func (t *Tree) newRegion(depth int, parent *region) (*region, error) {
	r := &region{
		depth:  depth,
		parent: parent,
		minY:   math.MaxInt64,
		xHead:  disk.InvalidPage,
		yHead:  disk.InvalidPage,
		aHead:  disk.InvalidPage,
		sHead:  disk.InvalidPage,
	}
	r.u.head = disk.InvalidPage
	if depth%t.segLen == 0 {
		r.sn = &supernode{dirHead: disk.InvalidPage}
		r.sn.u.head = disk.InvalidPage
	}
	return r, nil
}

// Len reports the number of live points (inserts minus deletes applied).
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// RegionCap reports the target region size in points.
func (t *Tree) RegionCap() int { return t.regionCap }

// Insert adds a point. Amortized cost O(log_B n) I/Os.
func (t *Tree) Insert(p record.Point) error {
	if err := t.enqueue(op{insert: true, p: p}); err != nil {
		return err
	}
	t.n++
	return nil
}

// Delete removes a point (matched by exact coordinates and ID). Deleting an
// absent point is silently dropped when its buffered operation reaches the
// bottom of the tree.
func (t *Tree) Delete(p record.Point) error {
	if err := t.enqueue(op{insert: false, p: p}); err != nil {
		return err
	}
	t.n--
	return nil
}

// enqueue logs an operation at the root super node, distributing on
// overflow.
func (t *Tree) enqueue(o op) error {
	if err := t.bufAppend(&t.root.sn.u, o); err != nil {
		return err
	}
	if len(t.root.sn.u.ops) >= t.opCap {
		if err := t.distribute(t.root); err != nil {
			return err
		}
		// Distribution is the only step that moves list weight around.
		return t.checkBalance(t.root)
	}
	return nil
}

// --- buffer plumbing -------------------------------------------------------

// bufAppend adds an operation, rewriting the chain.
func (t *Tree) bufAppend(b *buffer, o op) error {
	b.ops = append(b.ops, o)
	return t.bufRewrite(b)
}

// bufRewrite re-persists the mirror.
func (t *Tree) bufRewrite(b *buffer) error {
	if b.head != disk.InvalidPage {
		if err := disk.FreeChain(t.pager, b.head); err != nil {
			return err
		}
		b.head, b.pages = disk.InvalidPage, 0
	}
	if len(b.ops) == 0 {
		return nil
	}
	raw := make([]byte, len(b.ops)*opSize)
	for i, o := range b.ops {
		encodeOp(o, raw[i*opSize:])
	}
	head, pages, err := disk.WriteChain(t.pager, opSize, raw)
	if err != nil {
		return err
	}
	b.head, b.pages = head, pages
	return nil
}

// bufCharge reads the chain (for I/O accounting); the mirror is
// authoritative.
func (t *Tree) bufCharge(b *buffer) error {
	if b.head == disk.InvalidPage {
		return nil
	}
	_, err := disk.ScanChain(t.pager, opSize, b.head, func([]byte) bool { return true })
	return err
}

// bufClear empties the buffer.
func (t *Tree) bufClear(b *buffer) error {
	b.ops = nil
	return t.bufRewrite(b)
}

// --- list plumbing ----------------------------------------------------------

func (t *Tree) writePoints(pts []record.Point) (disk.PageID, int, error) {
	return pstcore.WritePoints(t.pager, pts)
}

// readPoints scans a full chain (charged).
func (t *Tree) readPoints(head disk.PageID) ([]record.Point, error) {
	var pts []record.Point
	_, err := disk.ScanChain(t.pager, record.PointSize, head, func(rec []byte) bool {
		pts = append(pts, record.DecodePoint(rec))
		return true
	})
	return pts, err
}

func (t *Tree) freeIf(head disk.PageID) error {
	if head == disk.InvalidPage {
		return nil
	}
	return disk.FreeChain(t.pager, head)
}

// setLists rewrites a region's X/Y chains from pts and refreshes the derived
// metadata. pts may be in any order.
func (t *Tree) setLists(r *region, pts []record.Point) error {
	if err := t.freeIf(r.xHead); err != nil {
		return err
	}
	if err := t.freeIf(r.yHead); err != nil {
		return err
	}
	byX := append([]record.Point(nil), pts...)
	slices.SortFunc(byX, record.CmpXDesc)
	var err error
	r.xHead, r.xPages, err = t.writePoints(byX)
	if err != nil {
		return err
	}
	byY := append([]record.Point(nil), pts...)
	slices.SortFunc(byY, record.CmpYDesc)
	r.yHead, r.yPages, err = t.writePoints(byY)
	if err != nil {
		return err
	}
	delta := len(pts) - r.count
	r.count = len(pts)
	if len(pts) == 0 {
		r.minY = math.MaxInt64
		r.firstXMin, r.firstYMin = 0, 0
	} else {
		r.minY = byY[len(byY)-1].Y
		fx := byX
		if len(fx) > t.b {
			fx = fx[:t.b]
		}
		r.firstXMin = fx[len(fx)-1].X
		fy := byY
		if len(fy) > t.b {
			fy = fy[:t.b]
		}
		r.firstYMin = fy[len(fy)-1].Y
	}
	for a := r; a != nil; a = a.parent {
		a.weight += delta
	}
	return nil
}

// rebuildSub rebuilds the region's second-level tree from its current list
// content (pts must equal the list content) and clears u.
func (t *Tree) rebuildSub(r *region, pts []record.Point) error {
	if r.sub != nil {
		if err := r.sub.Destroy(); err != nil {
			return err
		}
		r.sub = nil
	}
	if len(pts) > 0 {
		sub, err := extpst.Build(t.pager, pts, extpst.Basic)
		if err != nil {
			return err
		}
		r.sub = sub
	}
	return t.bufClear(&r.u)
}

// --- super-node helpers ------------------------------------------------------

// snRoot returns the root of the super node containing r.
func (t *Tree) snRoot(r *region) *region {
	for r.sn == nil {
		r = r.parent
	}
	return r
}

// snRegions lists the regions of the super node rooted at sr, top-down.
func (t *Tree) snRegions(sr *region) []*region {
	var out []*region
	limit := sr.depth + t.segLen
	var walk func(r *region)
	walk = func(r *region) {
		if r == nil || r.depth >= limit {
			return
		}
		out = append(out, r)
		walk(r.left)
		walk(r.right)
	}
	walk(sr)
	return out
}

// firstBlock reads the first up-to-B records of a chain (one page).
func (t *Tree) firstBlock(head disk.PageID) ([]record.Point, error) {
	if head == disk.InvalidPage {
		return nil, nil
	}
	var pts []record.Point
	_, err := disk.ScanChain(t.pager, record.PointSize, head, func(rec []byte) bool {
		pts = append(pts, record.DecodePoint(rec))
		return len(pts) < t.b
	})
	return pts, err
}

// refreshSupernode rebuilds every region's A/S caches within the super node
// rooted at sr and rewrites its directory chain — the O(B) I/O step the
// paper charges once per B distributed updates.
func (t *Tree) refreshSupernode(sr *region) error {
	regions := t.snRegions(sr)
	firstX := make(map[*region][]record.Point, len(regions))
	firstY := make(map[*region][]record.Point, len(regions))
	for _, r := range regions {
		fx, err := t.firstBlock(r.xHead)
		if err != nil {
			return err
		}
		fy, err := t.firstBlock(r.yHead)
		if err != nil {
			return err
		}
		firstX[r], firstY[r] = fx, fy
	}
	var build func(r *region, anc []record.Point, sib []record.Point) error
	build = func(r *region, anc, sib []record.Point) error {
		aPts := append([]record.Point(nil), anc...)
		slices.SortFunc(aPts, record.CmpXDesc)
		sPts := append([]record.Point(nil), sib...)
		slices.SortFunc(sPts, record.CmpYDesc)
		if err := t.freeIf(r.aHead); err != nil {
			return err
		}
		if err := t.freeIf(r.sHead); err != nil {
			return err
		}
		var err error
		r.aHead, r.aPages, err = t.writePoints(aPts)
		if err != nil {
			return err
		}
		r.aCount = len(aPts)
		r.sHead, r.sPages, err = t.writePoints(sPts)
		if err != nil {
			return err
		}
		r.sCount = len(sPts)
		if r.depth+1 >= sr.depth+t.segLen {
			return nil
		}
		childAnc := append(append([]record.Point(nil), anc...), firstX[r]...)
		if r.left != nil {
			childSib := append([]record.Point(nil), sib...)
			if r.right != nil {
				childSib = append(childSib, firstY[r.right]...)
			}
			if err := build(r.left, childAnc, childSib); err != nil {
				return err
			}
		}
		if r.right != nil {
			if err := build(r.right, childAnc, append([]record.Point(nil), sib...)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(sr, nil, nil); err != nil {
		return err
	}
	return t.writeDirectory(sr, regions)
}

// descSize is the fixed width of one region descriptor in the super-node
// directory chain: depth(4) count(4) split(8) minY(8) firstXMin(8)
// firstYMin(8) pad(8). Writer and readers must share this one constant so
// the chain's page capacity stays in sync with the encoder.
const descSize = 48

// writeDirectory serializes the super node's region descriptors — the
// skeletal pages a search reads when passing through.
func (t *Tree) writeDirectory(sr *region, regions []*region) error {
	if err := t.freeIf(sr.sn.dirHead); err != nil {
		return err
	}
	raw := make([]byte, len(regions)*descSize)
	for i, r := range regions {
		off := i * descSize
		binary.LittleEndian.PutUint32(raw[off:], uint32(r.depth))
		binary.LittleEndian.PutUint32(raw[off+4:], uint32(r.count))
		binary.LittleEndian.PutUint64(raw[off+8:], uint64(r.split))
		binary.LittleEndian.PutUint64(raw[off+16:], uint64(r.minY))
		binary.LittleEndian.PutUint64(raw[off+24:], uint64(r.firstXMin))
		binary.LittleEndian.PutUint64(raw[off+32:], uint64(r.firstYMin))
	}
	head, pages, err := disk.WriteChain(t.pager, descSize, raw)
	if err != nil {
		return err
	}
	sr.sn.dirHead, sr.sn.dirPages = head, pages
	return nil
}

// chargeDirectory reads the directory chain (accounting only).
func (t *Tree) chargeDirectory(sr *region) error {
	if sr.sn.dirHead == disk.InvalidPage {
		return nil
	}
	_, err := disk.ScanChain(t.pager, descSize, sr.sn.dirHead, func([]byte) bool { return true })
	return err
}

// --- distribution -----------------------------------------------------------

// distribute empties the super node's U buffer: operations for regions in
// this super node are applied (rebuilding their lists), operations bound
// deeper are pushed into child super nodes' buffers, cascading.
func (t *Tree) distribute(sr *region) error {
	work := []*region{sr}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		if cur.dead {
			// A subtree rebuild already gathered this buffer's operations.
			continue
		}
		next, err := t.distributeOne(cur)
		if err != nil {
			return err
		}
		work = append(work, next...)
	}
	return nil
}

// distributeOne processes one super node's buffer and returns child super
// nodes whose buffers overflowed.
func (t *Tree) distributeOne(sr *region) ([]*region, error) {
	if err := t.bufCharge(&sr.sn.u); err != nil {
		return nil, err
	}
	ops := sr.sn.u.ops
	if err := t.bufClear(&sr.sn.u); err != nil {
		return nil, err
	}
	limit := sr.depth + t.segLen

	pending := map[*region][]op{}
	pushDown := map[*region][]op{}
	for _, o := range ops {
		r := sr
		for {
			if t.belongsHere(r, o) {
				pending[r] = append(pending[r], o)
				break
			}
			c := t.routeChild(r, o.p)
			if c.depth >= limit {
				pushDown[c] = append(pushDown[c], o)
				break
			}
			r = c
		}
	}

	// Apply top-down so cascaded deletes flow downward deterministically.
	var oversized []*region
	for {
		var r *region
		for cand := range pending {
			if r == nil || cand.depth < r.depth {
				r = cand
			}
		}
		if r == nil {
			break
		}
		rops := pending[r]
		delete(pending, r)
		casc, grown, err := t.applyToRegion(r, rops)
		if err != nil {
			return nil, err
		}
		if grown {
			oversized = append(oversized, r)
		}
		for cr, cops := range casc {
			if cr.depth >= limit {
				pushDown[cr] = append(pushDown[cr], cops...)
			} else {
				pending[cr] = append(pending[cr], cops...)
			}
		}
	}

	var overflowed []*region
	for c, cops := range pushDown {
		for _, o := range cops {
			c.sn.u.ops = append(c.sn.u.ops, o)
		}
		if err := t.bufRewrite(&c.sn.u); err != nil {
			return nil, err
		}
		if len(c.sn.u.ops) >= t.opCap {
			overflowed = append(overflowed, c)
		}
	}

	if err := t.refreshSupernode(sr); err != nil {
		return nil, err
	}
	// Oversized leaves grow children via a local rebuild, deferred to here
	// so the routing maps above never hold destroyed regions.
	for _, r := range oversized {
		if r.left == nil && r.right == nil && r.count > 2*t.regionCap {
			if err := t.rebuildSubtree(r); err != nil {
				return nil, err
			}
		}
	}
	sr.sn.updates += len(ops)
	if sr.sn.updates >= t.regionCap {
		more, err := t.relevel(sr)
		if err != nil {
			return nil, err
		}
		overflowed = append(overflowed, more...)
	}
	return overflowed, nil
}

// belongsHere reports whether the operation's point lives in region r:
// leaves (and missing x-side children) absorb everything; otherwise the
// first region on the x-path whose stored y-range reaches the point.
func (t *Tree) belongsHere(r *region, o op) bool {
	if t.routeChild(r, o.p) == nil {
		return true
	}
	return r.count > 0 && o.p.Y >= r.minY
}

// routeChild picks the child on the x-path of p, or nil when that side has
// no child (the point then belongs to r itself). Routing compares the full
// (X, Y, ID) order against the split point, matching exactly how rebuilds
// partition points — x-ties at the split are unambiguous.
func (t *Tree) routeChild(r *region, p record.Point) *region {
	if p.Less(r.splitPt) {
		return r.left
	}
	return r.right
}

// applyToRegion merges operations into a region's lists. Deletes that do not
// match a stored point cascade toward the children; matched operations are
// logged in u, rebuilding the second-level tree on overflow. grown reports
// an oversized leaf that needs a local rebuild.
func (t *Tree) applyToRegion(r *region, ops []op) (cascades map[*region][]op, grown bool, err error) {
	pts, err := t.readPoints(r.xHead)
	if err != nil {
		return nil, false, err
	}
	cascades = map[*region][]op{}
	applied := make([]op, 0, len(ops))
	for _, o := range ops {
		if o.insert {
			pts = append(pts, o.p)
			applied = append(applied, o)
			continue
		}
		found := -1
		for i, p := range pts {
			if p == o.p {
				found = i
				break
			}
		}
		if found >= 0 {
			pts = append(pts[:found], pts[found+1:]...)
			applied = append(applied, o)
			continue
		}
		// Cascade the delete down the x-path.
		if c := t.routeChild(r, o.p); c != nil {
			cascades[c] = append(cascades[c], o)
		}
	}
	if err := t.setLists(r, pts); err != nil {
		return nil, false, err
	}
	r.u.ops = append(r.u.ops, applied...)
	if err := t.bufRewrite(&r.u); err != nil {
		return nil, false, err
	}
	if len(r.u.ops) >= t.opCap {
		if err := t.rebuildSub(r, pts); err != nil {
			return nil, false, err
		}
	}
	grown = r.left == nil && r.right == nil && r.count > 2*t.regionCap
	return cascades, grown, nil
}

// --- re-levelling and rebuilding ---------------------------------------------

// relevel redistributes points among the super node's regions: x-divisions
// stay, y-lines move so each region again holds ~regionCap points; the
// surplus at the bottom is pushed into child super nodes as logged inserts.
func (t *Tree) relevel(sr *region) ([]*region, error) {
	sr.sn.updates = 0
	limit := sr.depth + t.segLen
	regions := t.snRegions(sr)
	avail := map[*region][]record.Point{}
	for _, r := range regions {
		pts, err := t.readPoints(r.xHead)
		if err != nil {
			return nil, err
		}
		avail[sr] = append(avail[sr], pts...)
		_ = r
	}
	// Reassign top-down with fixed x-divisions.
	pushOut := map[*region][]op{}
	var assign func(r *region) error
	assign = func(r *region) error {
		pts := avail[r]
		keep := pts
		var rest []record.Point
		if len(pts) > t.regionCap && (r.left != nil || r.right != nil) {
			slices.SortFunc(pts, record.CmpYDesc)
			keep = pts[:t.regionCap]
			rest = pts[t.regionCap:]
		}
		if err := t.setLists(r, keep); err != nil {
			return err
		}
		if err := t.rebuildSub(r, keep); err != nil {
			return err
		}
		for _, p := range rest {
			c := t.routeChild(r, p)
			if c == nil {
				// No child on that side: keep the point here after all.
				continue
			}
			if c.depth >= limit {
				pushOut[c] = append(pushOut[c], op{insert: true, p: p})
				continue
			}
			avail[c] = append(avail[c], p)
		}
		// Points kept because a child was missing are re-merged.
		if len(rest) > 0 {
			var kept []record.Point
			for _, p := range rest {
				if t.routeChild(r, p) == nil {
					kept = append(kept, p)
				}
			}
			if len(kept) > 0 {
				merged := append(append([]record.Point(nil), keep...), kept...)
				if err := t.setLists(r, merged); err != nil {
					return err
				}
				if err := t.rebuildSub(r, merged); err != nil {
					return err
				}
			}
		}
		if r.depth+1 < limit {
			if r.left != nil {
				if err := assign(r.left); err != nil {
					return err
				}
			}
			if r.right != nil {
				if err := assign(r.right); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := assign(sr); err != nil {
		return nil, err
	}
	var overflowed []*region
	for c, cops := range pushOut {
		c.sn.u.ops = append(c.sn.u.ops, cops...)
		if err := t.bufRewrite(&c.sn.u); err != nil {
			return nil, err
		}
		if len(c.sn.u.ops) >= t.opCap {
			overflowed = append(overflowed, c)
		}
	}
	if err := t.refreshSupernode(sr); err != nil {
		return nil, err
	}
	return overflowed, nil
}

// checkBalance rebuilds the highest weight-imbalanced subtree, if any.
func (t *Tree) checkBalance(r *region) error {
	var victim *region
	var scan func(r *region)
	scan = func(r *region) {
		if r == nil || victim != nil {
			return
		}
		lw, rw := 0, 0
		if r.left != nil {
			lw = r.left.weight
		}
		if r.right != nil {
			rw = r.right.weight
		}
		hi, lo := lw, rw
		if rw > lw {
			hi, lo = rw, lw
		}
		if hi > 2*lo+2*t.regionCap {
			victim = r
			return
		}
		scan(r.left)
		scan(r.right)
	}
	scan(r)
	if victim == nil {
		return nil
	}
	return t.rebuildSubtree(victim)
}

// gather collects every point in the subtree: list contents plus pending
// buffered operations, resolved newest-first per tuple ID.
func (t *Tree) gather(r *region) ([]record.Point, error) {
	var pts []record.Point
	var bufs []*buffer // ordered deepest-first (oldest ops first)
	var walk func(r *region, depth int) error
	walk = func(r *region, depth int) error {
		if r == nil {
			return nil
		}
		if err := walk(r.left, depth+1); err != nil {
			return err
		}
		if err := walk(r.right, depth+1); err != nil {
			return err
		}
		got, err := t.readPoints(r.xHead)
		if err != nil {
			return err
		}
		pts = append(pts, got...)
		return nil
	}
	if err := walk(r, r.depth); err != nil {
		return nil, err
	}
	// U buffers, deepest super nodes first so later (shallower) ops win.
	var collect func(r *region)
	depthOf := map[*buffer]int{}
	collect = func(r *region) {
		if r == nil {
			return
		}
		collect(r.left)
		collect(r.right)
		if r.sn != nil {
			bufs = append(bufs, &r.sn.u)
			depthOf[&r.sn.u] = r.depth
		}
	}
	collect(r)
	sort.SliceStable(bufs, func(i, j int) bool { return depthOf[bufs[i]] > depthOf[bufs[j]] })

	present := map[record.Point]int{}
	for _, p := range pts {
		present[p]++
	}
	for _, b := range bufs {
		if err := t.bufCharge(b); err != nil {
			return nil, err
		}
		for _, o := range b.ops {
			if o.insert {
				present[o.p]++
			} else if present[o.p] > 0 {
				present[o.p]--
			}
		}
	}
	out := make([]record.Point, 0, len(present))
	for p, c := range present {
		for i := 0; i < c; i++ {
			out = append(out, p)
		}
	}
	return out, nil
}

// destroySubtree frees every page below and including r and marks the
// regions dead so stale references (distribution worklists) skip them.
func (t *Tree) destroySubtree(r *region) error {
	if r == nil {
		return nil
	}
	if err := t.destroySubtree(r.left); err != nil {
		return err
	}
	if err := t.destroySubtree(r.right); err != nil {
		return err
	}
	for _, h := range []disk.PageID{r.xHead, r.yHead, r.aHead, r.sHead, r.u.head} {
		if err := t.freeIf(h); err != nil {
			return err
		}
	}
	if r.sub != nil {
		if err := r.sub.Destroy(); err != nil {
			return err
		}
	}
	if r.sn != nil {
		if err := t.freeIf(r.sn.dirHead); err != nil {
			return err
		}
		if err := t.freeIf(r.sn.u.head); err != nil {
			return err
		}
	}
	r.dead = true
	return nil
}

// rebuildSubtree rebuilds the subtree rooted at victim from scratch with
// fresh x-divisions, fresh regions of regionCap points, fresh caches,
// directories and second-level trees, and empty buffers. The victim struct
// is reused as the new subtree root, so references held by in-flight
// distribution work stay valid.
func (t *Tree) rebuildSubtree(victim *region) error {
	pts, err := t.gather(victim)
	if err != nil {
		return err
	}
	return t.rebuildWith(victim, pts)
}

// BulkLoad replaces the tree's entire contents with pts — the fast path for
// initial loading, costing one bottom-up build instead of n buffered
// updates. Any pending buffered operations are discarded.
func (t *Tree) BulkLoad(pts []record.Point) error {
	// SortedAsc skips the defensive copy when the input arrives pre-sorted
	// (the LSM and shard rebuild pipelines feed merge-sorted runs);
	// rebuildWith's in-place sort is then a no-op on the aliased slice.
	if err := t.rebuildWith(t.root, pstcore.SortedAsc(pts)); err != nil {
		return err
	}
	t.n = len(pts)
	return nil
}

// rebuildWith rebuilds the subtree at victim from the given point set,
// reusing the victim struct as the new root.
func (t *Tree) rebuildWith(victim *region, pts []record.Point) error {
	oldWeight := victim.weight
	parent := victim.parent
	depth := victim.depth
	sn := victim.sn
	if err := t.destroySubtree(victim); err != nil {
		return err
	}
	// Reset the victim in place; keep its super-node struct (buffers were
	// gathered and freed) so stale references see an empty buffer.
	*victim = region{
		depth:  depth,
		parent: parent,
		minY:   math.MaxInt64,
		xHead:  disk.InvalidPage,
		yHead:  disk.InvalidPage,
		aHead:  disk.InvalidPage,
		sHead:  disk.InvalidPage,
	}
	victim.u.head = disk.InvalidPage
	if sn != nil {
		*sn = supernode{dirHead: disk.InvalidPage}
		sn.u.head = disk.InvalidPage
		victim.sn = sn
	}
	for a := parent; a != nil; a = a.parent {
		a.weight -= oldWeight
	}
	if len(pts) > 0 {
		pstcore.SortAsc(pts)
		mem := pstcore.Build(pts, t.regionCap)
		victim.split = mem.Split
		victim.splitPt = mem.SplitPt
		if err := t.setLists(victim, mem.Pts); err != nil {
			return err
		}
		if err := t.rebuildSub(victim, mem.Pts); err != nil {
			return err
		}
		var err error
		if victim.left, err = t.fromMem(mem.Left, depth+1, victim); err != nil {
			return err
		}
		if victim.right, err = t.fromMem(mem.Right, depth+1, victim); err != nil {
			return err
		}
	}
	// Fresh caches and directories for every super node in the new subtree,
	// plus the (partial) super node containing the rebuild point.
	return t.refreshContaining(victim)
}

// fromMem converts a pstcore tree into persisted regions.
func (t *Tree) fromMem(m *pstcore.MemNode, depth int, parent *region) (*region, error) {
	if m == nil {
		return nil, nil
	}
	r, err := t.newRegion(depth, parent)
	if err != nil {
		return nil, err
	}
	r.split = m.Split
	r.splitPt = m.SplitPt
	if err := t.setLists(r, m.Pts); err != nil {
		return nil, err
	}
	if err := t.rebuildSub(r, m.Pts); err != nil {
		return nil, err
	}
	if r.left, err = t.fromMem(m.Left, depth+1, r); err != nil {
		return nil, err
	}
	if r.right, err = t.fromMem(m.Right, depth+1, r); err != nil {
		return nil, err
	}
	return r, nil
}

// ensureSupernodeState attaches super-node state when required by depth.
func (t *Tree) ensureSupernodeState(r *region) error {
	if r.depth%t.segLen == 0 && r.sn == nil {
		r.sn = &supernode{dirHead: disk.InvalidPage}
		r.sn.u.head = disk.InvalidPage
	}
	return nil
}

// refreshContaining refreshes caches/directories of the super node that
// contains r, and of every super node rooted inside r's subtree.
func (t *Tree) refreshContaining(r *region) error {
	var roots []*region
	var walk func(x *region)
	walk = func(x *region) {
		if x == nil {
			return
		}
		if x.sn != nil {
			roots = append(roots, x)
		}
		walk(x.left)
		walk(x.right)
	}
	walk(r)
	if r.sn == nil {
		roots = append(roots, t.snRoot(r))
	}
	for _, sr := range roots {
		if err := t.refreshSupernode(sr); err != nil {
			return err
		}
	}
	return nil
}

// TotalPages reports the structure's storage footprint via its store when
// available.
func (t *Tree) TotalPages() int {
	if s, ok := t.pager.(*disk.Store); ok {
		return s.NumPages()
	}
	return -1
}
