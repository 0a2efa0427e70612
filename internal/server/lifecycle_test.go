package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache"
	"pathcache/internal/disk"
)

// Lifecycle battery: graceful drain lets in-flight requests finish while
// refusing new ones; hot reload swaps the served index without dropping a
// reader; background compaction never blocks or corrupts concurrent reads.

func TestServeDrain(t *testing.T) {
	ts, sp := slowServer(t, Config{})

	// One request in flight, held mid-store.
	type result struct {
		status int
		body   map[string]any
	}
	inflight := make(chan result, 1)
	go func() {
		status, body := ts.post(t, "/v1/query", map[string]any{"a": 150, "b": 150})
		inflight <- result{status, body}
	}()
	<-sp.entered

	// Phase one: the drain flag flips, the listener stays open.
	ts.srv.StartDrain()

	// New work is refused with the typed drain error…
	status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	wantCode(t, status, body, 503, "draining")
	// …and the health probe reports unhealthy so balancers rotate us out.
	if status, raw := ts.get(t, "/healthz"); status != 503 {
		t.Fatalf("healthz during drain = %d %q, want 503", status, raw)
	}

	// Phase two: full drain must wait for the held request.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := testContext(10 * time.Second)
		defer cancel()
		drained <- ts.srv.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Release the held request: it completes with its full, correct answer
	// — zero dropped in-flight requests.
	close(sp.release)
	res := <-inflight
	if res.status != 200 || count(t, res.body) != 50 {
		t.Fatalf("in-flight request during drain: status %d body %v", res.status, res.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := ts.srv.Metrics().DrainDenials; got < 1 {
		t.Fatalf("DrainDenials = %d, want >= 1", got)
	}
}

// rebuildAt builds an n-point twosided index beside path and renames it
// over path — the atomic-replace contract /admin/reload picks up.
func rebuildAt(t testing.TB, path string, n int) {
	t.Helper()
	tmp := path + ".next"
	ix, err := pathcache.NewTwoSidedIndex(fixturePoints(n), pathcache.SchemeSegmented, fixtureOpts(tmp))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatalf("rename: %v", err)
	}
}

func TestServeHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.pc")
	rebuildAt(t, path, 100)
	ts := startServer(t, path, Config{})

	if status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0}); status != 200 || count(t, body) != 100 {
		t.Fatalf("pre-reload: status %d body %v", status, body)
	}

	rebuildAt(t, path, 200)
	status, body := ts.post(t, "/admin/reload", nil)
	if status != 200 {
		t.Fatalf("reload: status %d body %v", status, body)
	}
	if gen := ts.handle.Generation(); gen != 1 {
		t.Fatalf("generation after reload = %d, want 1", gen)
	}
	if status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0}); status != 200 || count(t, body) != 200 {
		t.Fatalf("post-reload: status %d body %v", status, body)
	}
}

// TestServeReloadNeverBlocksReaders holds a reader mid-request across a
// reload: the reader finishes on its pinned snapshot with the old answer,
// post-swap requests answer from the new index immediately, and neither
// waits on the other.
func TestServeReloadNeverBlocksReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.pc")

	// The initial 100-point index reads through a parking pager; the
	// reloaded index is reopened from disk and is full speed.
	sp := &slowPager{entered: make(chan struct{}), release: make(chan struct{})}
	var armed atomic.Bool
	opts := fixtureOpts(path)
	opts.WrapPager = func(p disk.Pager) disk.Pager {
		sp.Pager = p
		return pagerFunc{p, func(id disk.PageID, buf []byte) error {
			if armed.Load() {
				return sp.Read(id, buf)
			}
			return p.Read(id, buf)
		}}
	}
	ix, err := pathcache.NewTwoSidedIndex(fixturePoints(100), pathcache.SchemeSegmented, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	armed.Store(true)
	handle := pathcache.NewHandle(path, ix)
	defer handle.Close()
	ts := startServerOn(t, handle, Config{})

	held := make(chan int, 1)
	go func() {
		status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
		if status != 200 {
			held <- -status
			return
		}
		held <- count(t, body)
	}()
	<-sp.entered

	// Swap in a 200-point index while the reader is stalled on the old one.
	rebuildAt(t, path, 200)
	if status, body := ts.post(t, "/admin/reload", nil); status != 200 {
		t.Fatalf("reload with reader in flight: %d %v", status, body)
	}

	if status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0}); status != 200 || count(t, body) != 200 {
		t.Fatalf("post-swap query: status %d body %v", status, body)
	}

	// The held reader completes on its snapshot: the OLD answer, exactly.
	close(sp.release)
	if got := <-held; got != 100 {
		t.Fatalf("held reader answered %d, want 100 (its pinned snapshot)", got)
	}
}

func TestServeBackgroundCompactConsistency(t *testing.T) {
	ts := startServer(t, buildKind(t, t.TempDir(), "lsm"), Config{})

	// Readers hammer the index while background compactions race them.
	// Inserts land below the readers' quadrants, so every reader's answer
	// stays exactly checkable throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := int64(i % 200)
				status, body := ts.post(t, "/v1/query", map[string]any{"a": a, "b": a})
				if status != 200 {
					errs <- fmt.Sprintf("query during compaction: status %d body %v", status, body)
					return
				}
				if got, want := count(t, body), int(200-a); got != want {
					errs <- fmt.Sprintf("query {a:%d} during compaction = %d results, want %d", a, got, want)
					return
				}
			}
		}()
	}

	// Inserts follow each background compaction at once, so they race it;
	// each must succeed and be visible to the final query.
	var inserted []pathcache.Point
	for i := 0; i < 5; i++ {
		status, body := ts.post(t, "/v1/compact", map[string]any{"background": true})
		if status != 200 {
			t.Fatalf("background compact %d: status %d body %v", i, status, body)
		}
		for j := 0; j < 3; j++ {
			p := pathcache.Point{X: int64(-1 - len(inserted)), Y: -1, ID: uint64(1000 + len(inserted))}
			status, body := ts.post(t, "/v1/insert", map[string]any{"x": p.X, "y": p.Y, "id": p.ID})
			if status != 200 {
				t.Fatalf("insert %v during background compact %d: status %d body %v", p, i, status, body)
			}
			inserted = append(inserted, p)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Every background compaction commits.
	waitUntil(t, func() bool {
		return ts.srv.compactOK.Load()+ts.srv.compactFail.Load() == 5
	})
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ok, fail := ts.srv.compactOK.Load(), ts.srv.compactFail.Load(); ok != 5 {
		t.Fatalf("background compactions: %d committed, %d failed; want 5 committed", ok, fail)
	}
	status, body := ts.post(t, "/v1/query", map[string]any{"a": -100, "b": -100})
	if status != 200 {
		t.Fatalf("final query: status %d body %v", status, body)
	}
	got := map[pathcache.Point]bool{}
	for _, p := range decodePoints(body) {
		got[p] = true
	}
	if len(got) != 200+len(inserted) {
		t.Errorf("final query = %d records, want the 200 fixture records and %d inserts", len(got), len(inserted))
	}
	for _, p := range inserted {
		if !got[p] {
			t.Errorf("inserted %v is missing from the final query", p)
		}
	}
}

// parkedCompactLSM is a write tier whose Compact parks until release is
// closed and whose Close fails: the generation a Reload retires while its
// background compaction runs.
type parkedCompactLSM struct {
	*pathcache.LSMIndex
	entered, release chan struct{}
}

func (x *parkedCompactLSM) Compact() error {
	close(x.entered)
	<-x.release
	return x.LSMIndex.Compact()
}

func (x *parkedCompactLSM) Close() error {
	if err := x.LSMIndex.Close(); err != nil {
		return err
	}
	return errors.New("retired generation failed to close")
}

// TestServeBackgroundCompactCountsReleaseError retires the served
// generation while its background compaction runs: the compaction's pin is
// the last one out, so its release closes that generation, and the Close
// error counts as a failed compaction in /varz.
func TestServeBackgroundCompactCountsReleaseError(t *testing.T) {
	ix, err := pathcache.OpenDynamic(buildKind(t, t.TempDir(), "lsm"))
	if err != nil {
		t.Fatal(err)
	}
	x := &parkedCompactLSM{LSMIndex: ix, entered: make(chan struct{}), release: make(chan struct{})}
	next := buildKind(t, t.TempDir(), "lsm")
	handle := pathcache.NewHandle(next, x)
	handle.SetOpener(func() (pathcache.Index, error) { return pathcache.OpenDynamic(next) })
	t.Cleanup(func() { handle.Close() })
	ts := startServerOn(t, handle, Config{})

	if status, body := ts.post(t, "/v1/compact", map[string]any{"background": true}); status != 200 {
		t.Fatalf("background compact: status %d body %v", status, body)
	}
	select {
	case <-x.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the background compaction never started")
	}
	if err := handle.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	close(x.release)
	waitUntil(t, func() bool { return ts.srv.compactOK.Load()+ts.srv.compactFail.Load() == 1 })
	if ok, fail := ts.srv.compactOK.Load(), ts.srv.compactFail.Load(); fail != 1 {
		t.Fatalf("compactions ok=%d fail=%d; the retired generation's Close error must count as a failure", ok, fail)
	}
	if status, raw := ts.get(t, "/varz"); status != 200 || !strings.Contains(string(raw), `"compactions":{"ok":0,"fail":1}`) {
		t.Fatalf("/varz = %d %s, want compactions ok 0 and fail 1", status, raw)
	}
}

// waitUntil polls cond to true within 10s.
func waitUntil(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within 10s")
}
