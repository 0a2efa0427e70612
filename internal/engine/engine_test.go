package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/obs"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means success
	}{
		{"defaults", Config{}, ""},
		{"negative page size", Config{PageSize: -1}, "invalid PageSize -1"},
		{"negative pool", Config{BufferPoolPages: -8}, "invalid BufferPoolPages -8"},
		{"page size below minimum", Config{PageSize: disk.MinPageSize / 2}, "page size too small"},
		{"pool of one frame", Config{BufferPoolPages: 1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be, err := New(tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New(%+v) = %v, want success", tc.cfg, err)
				}
				if err := be.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				return
			}
			if err == nil {
				be.Close()
				t.Fatalf("New(%+v) succeeded, want error containing %q", tc.cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) = %q, want error containing %q", tc.cfg, err, tc.want)
			}
		})
	}
}

func TestNewDefaultPageSize(t *testing.T) {
	be, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := be.Pager().PageSize(); got != DefaultPageSize {
		t.Fatalf("PageSize() = %d, want %d", got, DefaultPageSize)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pc")
	be, err := New(Config{Path: path, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("segment metadata blob")
	if err := be.SaveMeta(3, blob); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	be2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer be2.Close()
	kind, got, err := be2.ReadKind()
	if err != nil {
		t.Fatalf("ReadKind: %v", err)
	}
	if kind != 3 || string(got) != string(blob) {
		t.Fatalf("ReadKind = (%d, %q), want (3, %q)", kind, got, blob)
	}
	if got, err := be2.ReadMeta(3); err != nil || string(got) != string(blob) {
		t.Fatalf("ReadMeta(3) = (%q, %v), want (%q, nil)", got, err, blob)
	}
}

func TestReadMetaKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pc")
	be, err := New(Config{Path: path, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := be.SaveMeta(201, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err = be.ReadMeta(202)
	if !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("ReadMeta(202) = %v, want ErrKindMismatch", err)
	}
	// The message names both kinds so the mismatch is actionable even for
	// callers that only surface the text.
	for _, want := range []string{KindName(201), KindName(202)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not name kind %q", err, want)
		}
	}
	be.Close()
}

func TestReadKindNoIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pc")
	be, err := New(Config{Path: path, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, _, err := be.ReadKind(); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("ReadKind on fresh file = %v, want ErrNoIndex", err)
	}
}

func TestSaveMetaInMemoryNoop(t *testing.T) {
	be, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := be.SaveMeta(1, []byte("ignored")); err != nil {
		t.Fatalf("SaveMeta on in-memory backend = %v, want nil", err)
	}
}

func TestSaveMetaBlobTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pc")
	be, err := New(Config{Path: path, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	blob := make([]byte, 4096)
	if err := be.SaveMeta(1, blob); err == nil || !strings.Contains(err.Error(), "exceeds one page") {
		t.Fatalf("SaveMeta(oversized) = %v, want exceeds-one-page error", err)
	}
}

func TestRegistry(t *testing.T) {
	d := Descriptor{
		Kind:  250,
		Name:  "testkind",
		Open:  func(be *Backend, meta []byte) (any, error) { return string(meta), nil },
		Bound: obs.LogBBound,
	}
	Register(d)
	got, ok := Lookup(250)
	if !ok || got.Name != "testkind" {
		t.Fatalf("Lookup(250) = (%+v, %v), want registered descriptor", got, ok)
	}
	if name := KindName(250); name != "testkind" {
		t.Fatalf("KindName(250) = %q, want %q", name, "testkind")
	}
	if name := KindName(251); name != "unknown(251)" {
		t.Fatalf("KindName(251) = %q, want %q", name, "unknown(251)")
	}
	found := false
	for _, k := range Kinds() {
		if k.Kind == 250 {
			found = true
		}
	}
	if !found {
		t.Fatal("Kinds() does not include registered kind 250")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate kind", func() { Register(Descriptor{Kind: 250, Name: "other", Open: d.Open, Bound: d.Bound}) })
	mustPanic("duplicate name", func() { Register(Descriptor{Kind: 251, Name: "testkind", Open: d.Open, Bound: d.Bound}) })
	mustPanic("nil open", func() { Register(Descriptor{Kind: 252, Name: "noopen", Bound: d.Bound}) })
	mustPanic("nil bound", func() { Register(Descriptor{Kind: 253, Name: "nobound", Open: d.Open}) })
}

func TestOpPagerAttributesToCounter(t *testing.T) {
	be, err := New(Config{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	p := be.Pager()
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, p.PageSize())
	if err := p.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	be.ResetStats()

	var c disk.Counter
	op := be.OpPager(&c)
	if err := op.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Reads != 1 {
		t.Fatalf("counter reads = %d, want 1", s.Reads)
	}
	if s := be.Stats(); s.Reads != 1 {
		t.Fatalf("store reads = %d, want 1", s.Reads)
	}
}

// TestPoolNeverCachesMetaPages pins the invariant that lets Sync and
// ReplaceMeta keep a buffer pool warm: the only writes and frees that go to
// the FileStore past the pool (SaveMeta's page, ReplaceMeta's Free of the
// superseded one) touch pages the pool never caches. A random mix of
// pooled writes, overwrites, reads and frees through a 4-frame pool
// (evictions throughout) is interleaved with metadata flips and syncs,
// which must leave every frame resident. After every step the current
// metadata page must be uncached and hold no data page, and every data
// page must read back what was last written, warm and after a cold reopen.
func TestPoolNeverCachesMetaPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pc")
	be, err := New(Config{Path: path, PageSize: 256, BufferPoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	pg := be.Pager()
	live := map[disk.PageID]byte{}
	var ids []disk.PageID
	buf := make([]byte, 256)
	rng := rand.New(rand.NewSource(5))
	lastBlob := ""
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(6); {
		case op == 0 || len(ids) == 0:
			id, err := pg.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(step)
			if err := pg.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			live[id] = byte(step)
			ids = append(ids, id)
		case op == 1:
			id := ids[rng.Intn(len(ids))]
			buf[0] = byte(step)
			if err := pg.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			live[id] = byte(step)
		case op == 2:
			i := rng.Intn(len(ids))
			if err := pg.Free(ids[i]); err != nil {
				t.Fatal(err)
			}
			delete(live, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		case op == 3:
			old, resident := be.file.AppHead(), be.pool.Len()
			lastBlob = fmt.Sprintf("meta %d", step)
			if err := be.ReplaceMeta(pg, 7, []byte(lastBlob)); err != nil {
				t.Fatal(err)
			}
			if old != disk.InvalidPage && be.pool.Cached(old) {
				t.Fatalf("step %d: the superseded metadata page %d is cached", step, old)
			}
			if be.pool.Len() != resident {
				t.Fatalf("step %d: ReplaceMeta left %d of %d frames resident", step, be.pool.Len(), resident)
			}
		case op == 4:
			resident := be.pool.Len()
			if err := be.Sync(pg); err != nil {
				t.Fatal(err)
			}
			if be.pool.Len() != resident {
				t.Fatalf("step %d: Sync left %d of %d frames resident", step, be.pool.Len(), resident)
			}
		default:
			id := ids[rng.Intn(len(ids))]
			if err := pg.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != live[id] {
				t.Fatalf("step %d: page %d reads %d, want %d", step, id, buf[0], live[id])
			}
		}
		if head := be.file.AppHead(); head != disk.InvalidPage {
			if be.pool.Cached(head) {
				t.Fatalf("step %d: metadata page %d is cached", step, head)
			}
			if _, ok := live[head]; ok {
				t.Fatalf("step %d: metadata page %d is also a live data page", step, head)
			}
		}
	}
	if st := be.PoolStats(); st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("pool stats %+v: the mix never evicted or never hit", st)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, blob, err := cold.ReadKind(); err != nil || string(blob) != lastBlob {
		t.Fatalf("ReadKind = %q, %v; want %q", blob, err, lastBlob)
	}
	for id, want := range live {
		if err := cold.Pager().Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("cold page %d reads %d, want %d", id, buf[0], want)
		}
	}
}
