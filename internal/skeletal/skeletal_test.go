package skeletal

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"pathcache/internal/disk"
)

// buildBST builds a balanced in-memory BST over sorted keys with an 8-byte
// payload echoing the key, for round-trip checks.
func buildBST(keys []int64) *BuildNode {
	if len(keys) == 0 {
		return nil
	}
	mid := len(keys) / 2
	pl := make([]byte, 8)
	binary.LittleEndian.PutUint64(pl, uint64(keys[mid]))
	return &BuildNode{
		Key:     keys[mid],
		Payload: pl,
		Left:    buildBST(keys[:mid]),
		Right:   buildBST(keys[mid+1:]),
	}
}

func sortedKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	return keys
}

func TestBuildEmpty(t *testing.T) {
	s := disk.MustStore(256)
	tr, err := Build(s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root().Valid() {
		t.Fatal("empty tree has a root")
	}
	path, err := tr.Descend(func(Node) Dir { return Left })
	if err != nil || path != nil {
		t.Fatalf("descend on empty tree: path=%v err=%v", path, err)
	}
}

func TestBuildSingleNode(t *testing.T) {
	s := disk.MustStore(256)
	tr, err := Build(s, buildBST([]int64{7}), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || tr.NumPages() != 1 || tr.Height() != 0 {
		t.Fatalf("nodes=%d pages=%d height=%d", tr.NumNodes(), tr.NumPages(), tr.Height())
	}
	w := tr.NewWalker()
	n, err := w.Node(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if n.Key != 7 || !n.IsLeaf() {
		t.Fatalf("root = %+v", n)
	}
	if got := int64(binary.LittleEndian.Uint64(n.Payload)); got != 7 {
		t.Fatalf("payload = %d", got)
	}
}

func TestBuildRejectsBadPayload(t *testing.T) {
	s := disk.MustStore(256)
	if _, err := Build(s, nil, -1); err == nil {
		t.Fatal("negative payload size accepted")
	}
	if _, err := Build(s, nil, 1000); err == nil {
		t.Fatal("payload larger than page accepted")
	}
	bad := &BuildNode{Key: 1, Payload: make([]byte, 4)} // declared size 8
	if _, err := Build(s, bad, 8); err == nil {
		t.Fatal("mismatched payload width accepted")
	}
}

// Every key must be findable by standard BST descent, and its payload must
// round-trip.
func TestDescendFindsEveryKey(t *testing.T) {
	s := disk.MustStore(256)
	keys := sortedKeys(500)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != len(keys) {
		t.Fatalf("NumNodes = %d, want %d", tr.NumNodes(), len(keys))
	}
	for _, k := range keys {
		var found *Node
		path, err := tr.Descend(func(n Node) Dir {
			if n.Key == k {
				found = &n
				return Stop
			}
			if k < n.Key {
				return Left
			}
			return Right
		})
		if err != nil {
			t.Fatal(err)
		}
		if found == nil {
			t.Fatalf("key %d not found (path len %d)", k, len(path))
		}
		if got := int64(binary.LittleEndian.Uint64(found.Payload)); got != k {
			t.Fatalf("key %d: payload %d", k, got)
		}
	}
}

// The point of the skeletal blocking: a root-to-leaf descent reads
// O(height/subHeight) pages, not O(height).
func TestDescentIOCost(t *testing.T) {
	s := disk.MustStore(512)
	keys := sortedKeys(1 << 12)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	maxPages := tr.Height()/tr.SubHeight() + 2
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := keys[rng.Intn(len(keys))]
		s.ResetStats()
		_, err := tr.Descend(func(n Node) Dir {
			if n.Key == k {
				return Stop
			}
			if k < n.Key {
				return Left
			}
			return Right
		})
		if err != nil {
			t.Fatal(err)
		}
		if reads := s.Stats().Reads; int(reads) > maxPages {
			t.Fatalf("descent to %d cost %d reads, want <= %d (height=%d subHeight=%d)",
				k, reads, maxPages, tr.Height(), tr.SubHeight())
		}
	}
}

// A walker must read each distinct page at most once, however often nodes on
// it are visited.
func TestWalkerCachesPages(t *testing.T) {
	s := disk.MustStore(512)
	keys := sortedKeys(1000)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWalker()
	s.ResetStats()
	// Visit the root node many times.
	for i := 0; i < 10; i++ {
		if _, err := w.Node(tr.Root()); err != nil {
			t.Fatal(err)
		}
	}
	if reads := s.Stats().Reads; reads != 1 {
		t.Fatalf("10 visits cost %d reads, want 1", reads)
	}
	if w.PagesLoaded() != 1 {
		t.Fatalf("PagesLoaded = %d, want 1", w.PagesLoaded())
	}
}

// Full in-order traversal via Walker must reproduce the key sequence.
func TestInOrderTraversal(t *testing.T) {
	s := disk.MustStore(512)
	keys := sortedKeys(777)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWalker()
	var got []int64
	var visit func(ref NodeRef) error
	visit = func(ref NodeRef) error {
		if !ref.Valid() {
			return nil
		}
		n, err := w.Node(ref)
		if err != nil {
			return err
		}
		// Copy what we need before the next Node call (payload aliases).
		key, left, right := n.Key, n.Left, n.Right
		if err := visit(left); err != nil {
			return err
		}
		got = append(got, key)
		return visit(right)
	}
	if err := visit(tr.Root()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("traversed %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("in-order position %d: got %d want %d", i, got[i], keys[i])
		}
	}
}

func TestNodeIndexOutOfRange(t *testing.T) {
	s := disk.MustStore(256)
	tr, err := Build(s, buildBST([]int64{1}), 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tr.LoadPage(tr.Root().Page)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Node(5); err == nil {
		t.Fatal("out-of-range node index accepted")
	}
}

// Space: the skeleton must use O(n / subtree-size) pages.
func TestPageBudget(t *testing.T) {
	s := disk.MustStore(512)
	keys := sortedKeys(1 << 12)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	perPage := (1 << tr.SubHeight()) - 1
	// Fragmentation at subtree frontiers costs at most a small constant
	// factor over the perfect packing.
	if maxPages := 4 * (len(keys)/perPage + 1); tr.NumPages() > maxPages {
		t.Fatalf("pages = %d, want <= %d (perPage=%d)", tr.NumPages(), maxPages, perPage)
	}
}

// Reopen must attach to a persisted skeleton and answer descents exactly as
// the original.
func TestReopen(t *testing.T) {
	s := disk.MustStore(512)
	keys := sortedKeys(1000)
	tr, err := Build(s, buildBST(keys), 8)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(s, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if re.NumNodes() != tr.NumNodes() || re.Height() != tr.Height() || re.SubHeight() != tr.SubHeight() {
		t.Fatalf("reopened metadata differs: %+v vs %+v", re.Meta(), tr.Meta())
	}
	for _, k := range []int64{keys[0], keys[len(keys)/2], keys[len(keys)-1]} {
		found := false
		_, err := re.Descend(func(n Node) Dir {
			if n.Key == k {
				found = true
				return Stop
			}
			if k < n.Key {
				return Left
			}
			return Right
		})
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("key %d not found after reopen", k)
		}
	}
}

// metaSize is the encoded width of Meta; the layout byte is its last.
const metaSize = 8 + 2 + 5*4 + 1

func encodeMeta(m Meta) []byte {
	var w disk.FieldWriter
	m.Put(&w)
	return w.Buf
}

// decodeMeta reads a Meta from the front of buf and reports how many
// bytes it consumed.
func decodeMeta(buf []byte) (Meta, int, error) {
	r := disk.NewFieldReader("skeletal: meta", buf)
	m := ReadMeta(&r)
	return m, len(buf) - r.Len(), r.Err()
}

// Meta must survive its binary encoding.
func TestMetaRoundTrip(t *testing.T) {
	m := Meta{
		Root:        NodeRef{Page: 42, Idx: 7},
		PayloadSize: 60,
		SubHeight:   5,
		NumNodes:    1234,
		NumPages:    99,
		Height:      17,
	}
	buf := encodeMeta(m)
	got, consumed, err := decodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	if consumed != len(buf) || len(buf) != metaSize {
		t.Fatalf("consumed %d of %d bytes, want %d", consumed, len(buf), metaSize)
	}
	if _, _, err := decodeMeta(buf[:5]); !errors.Is(err, disk.ErrCorrupt) {
		t.Fatalf("truncated meta: err=%v, want ErrCorrupt", err)
	}
}
