package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache"
	"pathcache/internal/workload"
)

// Soak: concurrent queries, inserts, deletes, flushes and racing
// background compactions against one served LSM index — run under -race
// by `make test`. The oracle cross-checks every query response against
// the acknowledged write history: zero wrong answers, zero dropped
// requests, under every interleaving the scheduler finds.

// soakOracle orders writes and queries on one logical clock. Each point
// carries four stamps: insert submitted/acked, delete submitted/acked.
// A query spanning [start, end) must then see:
//   - every point insert-ACKED before start whose delete was never even
//     SUBMITTED before end (it was provably live for the whole query);
//   - no point delete-acked before start;
//   - nothing that was never submitted at all.
type soakOracle struct {
	clock atomic.Uint64

	mu     sync.Mutex
	points map[pathcache.Point]*soakStamps
}

type soakStamps struct {
	insSubmit, insAck, delSubmit, delAck uint64
}

func newSoakOracle() *soakOracle {
	return &soakOracle{points: make(map[pathcache.Point]*soakStamps)}
}

func (o *soakOracle) tick() uint64 { return o.clock.Add(1) }

func (o *soakOracle) stamp(p pathcache.Point, set func(*soakStamps, uint64)) {
	t := o.tick()
	o.mu.Lock()
	s := o.points[p]
	if s == nil {
		s = &soakStamps{}
		o.points[p] = s
	}
	set(s, t)
	o.mu.Unlock()
}

// check validates one 2-sided query answer observed over [start, end).
func (o *soakOracle) check(a, b int64, got []pathcache.Point, start, end uint64) error {
	have := make(map[pathcache.Point]bool, len(got))
	for _, p := range got {
		if p.X < a || p.Y < b {
			return fmt.Errorf("query {a:%d b:%d} returned out-of-range point %+v", a, b, p)
		}
		have[p] = true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range got {
		s := o.points[p]
		if s == nil || s.insSubmit == 0 {
			return fmt.Errorf("query returned phantom point %+v (insert never submitted)", p)
		}
		if s.delAck != 0 && s.delAck < start {
			return fmt.Errorf("query returned point %+v whose delete was acked before the query began", p)
		}
	}
	for p, s := range o.points {
		if p.X < a || p.Y < b {
			continue
		}
		mustSee := s.insAck != 0 && s.insAck < start && (s.delSubmit == 0 || s.delSubmit > end)
		if mustSee && !have[p] {
			return fmt.Errorf("query {a:%d b:%d} dropped point %+v (insert acked before query, never deleted)", a, b, p)
		}
	}
	return nil
}

// live returns the exact point set at quiescence (every submitted op acked).
func (o *soakOracle) live() map[pathcache.Point]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[pathcache.Point]bool)
	for p, s := range o.points {
		if s.insAck != 0 && s.delAck == 0 {
			out[p] = true
		}
	}
	return out
}

func TestServeSoak(t *testing.T) {
	const (
		domain   = 10_000
		duration = 1200 * time.Millisecond
		writers  = 2
		readers  = 4
	)
	// Start empty so the oracle owns the full history of every live point.
	path := filepath.Join(t.TempDir(), "soak.pc")
	opts := fixtureOpts(path)
	opts.MemtableEntries = 32
	empty, err := pathcache.BuildDynamic("twosided", nil, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := empty.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ts := startServer(t, path, Config{})
	oracle := newSoakOracle()

	stop := make(chan struct{})
	failures := make(chan string, 128)
	fail := func(format string, args ...any) {
		select {
		case failures <- fmt.Sprintf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	var requests, denials atomic.Int64

	// Writers: mostly insert fresh points (collision-free IDs via strided
	// PointStream), sometimes delete one of their own acked points.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := workload.NewPointStream(domain, 42, w, writers)
			var owned []pathcache.Point
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				if i%4 == 3 && len(owned) > 0 {
					p := owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					oracle.stamp(p, func(s *soakStamps, t uint64) { s.delSubmit = t })
					status, body := ts.post(t, "/v1/delete", map[string]any{"x": p.X, "y": p.Y, "id": p.ID})
					if status != 200 {
						denials.Add(1)
						fail("delete %+v: status %d body %v", p, status, body)
						return
					}
					oracle.stamp(p, func(s *soakStamps, t uint64) { s.delAck = t })
					continue
				}
				x, y, id := stream.Next()
				p := pathcache.Point{X: x, Y: y, ID: id}
				oracle.stamp(p, func(s *soakStamps, t uint64) { s.insSubmit = t })
				status, body := ts.post(t, "/v1/insert", map[string]any{"x": x, "y": y, "id": id})
				if status != 200 {
					denials.Add(1)
					fail("insert %+v: status %d body %v", p, status, body)
					return
				}
				oracle.stamp(p, func(s *soakStamps, t uint64) { s.insAck = t })
				owned = append(owned, p)
			}
		}(w)
	}

	// Readers: uniform 2-sided queries, every answer checked against the
	// oracle's stamp order.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stream := workload.NewTwoSidedStream(workload.MixUniform, domain, 0.1, 77, r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := stream.Next()
				requests.Add(1)
				start := oracle.tick()
				status, body := ts.post(t, "/v1/query", map[string]any{"a": q.A, "b": q.B})
				end := oracle.tick()
				if status != 200 {
					denials.Add(1)
					fail("query %+v: status %d body %v", q, status, body)
					return
				}
				pts := decodePoints(body)
				if err := oracle.check(q.A, q.B, pts, start, end); err != nil {
					fail("%v", err)
					return
				}
			}
		}(r)
	}

	// Maintenance: explicit flushes and racing background compactions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(60 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			requests.Add(1)
			if i%3 == 2 {
				if status, body := ts.post(t, "/v1/compact", map[string]any{"background": true}); status != 200 {
					denials.Add(1)
					fail("background compact: status %d body %v", status, body)
					return
				}
			} else {
				if status, body := ts.post(t, "/v1/flush", nil); status != 200 {
					denials.Add(1)
					fail("flush: status %d body %v", status, body)
					return
				}
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		return
	}
	if denials.Load() != 0 {
		t.Fatalf("%d requests dropped of %d", denials.Load(), requests.Load())
	}

	// Quiescent exactness: the full-domain query returns precisely the
	// acked-live set.
	want := oracle.live()
	status, body := ts.post(t, "/v1/query", map[string]any{"a": 0, "b": 0})
	if status != 200 {
		t.Fatalf("final query: status %d body %v", status, body)
	}
	got := decodePoints(body)
	if len(got) != len(want) {
		t.Fatalf("final live set: %d points, oracle has %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("final live set contains %+v which the oracle does not", p)
		}
	}
	t.Logf("soak: %d requests, %d live points, compactions ok=%d",
		requests.Load(), len(want), ts.srv.compactOK.Load())
}

// decodePoints pulls the points array out of a decoded query response.
func decodePoints(body map[string]any) []pathcache.Point {
	raw, _ := body["points"].([]any)
	pts := make([]pathcache.Point, 0, len(raw))
	for _, v := range raw {
		m, _ := v.(map[string]any)
		x, _ := m["x"].(float64)
		y, _ := m["y"].(float64)
		id, _ := m["id"].(float64)
		pts = append(pts, pathcache.Point{X: int64(x), Y: int64(y), ID: uint64(id)})
	}
	return pts
}
