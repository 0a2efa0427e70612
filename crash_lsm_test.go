package pathcache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pathcache/internal/disk"
)

// Crash sweep for the LSM write tier. The seeded build keeps the static
// sweep's (crash_test.go) all-or-nothing contract: it seals the seed into
// one level and commits once, so a kill inside it reopens as ErrNoIndex,
// as an error wrapping disk.ErrCorrupt, or as exactly the whole seed. After
// the build the contract is finer-grained, because every update is
// individually acknowledged behind a durable WAL append: killing the
// process at ANY write I/O point — a WAL append, a level seal, a tombstone
// rewrite, a manifest flip, a compaction — and reopening must yield exactly
//
//   - the state after every acknowledged update, plus possibly the one
//     update that was in flight when the crash hit (its WAL append may have
//     reached the file before the kill), or
//   - an error wrapping disk.ErrCorrupt (a torn page was detected by a
//     checksum — on the WAL tail this is the "torn last entry" case the
//     recovery contract explicitly allows).
//
// Any other recovered state — an acknowledged update missing, a deleted
// record resurrected beyond the in-flight one, a query disagreeing with the
// replayed model — fails the sweep. Verified per update via Has on every
// record the script ever touches plus full query/stab batteries, so a wrong
// answer cannot hide in an unprobed region.

// lsmOp is one scripted operation against the write tier.
type lsmOp struct {
	op string // "insert", "delete", "flush", "compact"
	pt Point
}

// lsmCrashSeed is how many of the script's leading inserts seed the build.
const lsmCrashSeed = 4

// lsmCrashScript builds the fixed op stream every base kind replays. Its
// first lsmCrashSeed inserts seed the build (one sealed level, one commit);
// with MemtableEntries=4 the rest crosses an automatic flush that cascades
// a level merge, tombstones sealed records, forces an explicit flush and a
// full compaction, and leaves the WAL non-empty at close so even the intact
// image exercises replay on reopen.
func lsmCrashScript(interval bool) []lsmOp {
	rng := rand.New(rand.NewSource(47))
	point := func(i int) Point {
		if interval {
			lo := rng.Int63n(1000)
			return IntervalToDynamicPoint(Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(200), ID: uint64(i)})
		}
		return Point{X: rng.Int63n(1000), Y: rng.Int63n(1000), ID: uint64(i)}
	}
	var ops []lsmOp
	pts := make([]Point, 0, 16)
	for i := 1; i <= 9; i++ { // the seed is 1-4; an automatic flush at 8
		p := point(i)
		pts = append(pts, p)
		ops = append(ops, lsmOp{op: "insert", pt: p})
	}
	ops = append(ops,
		lsmOp{op: "delete", pt: pts[1]}, // tombstones sealed copies
		lsmOp{op: "delete", pt: pts[6]},
		lsmOp{op: "flush"}, // seals insert #9 + both tombstones
	)
	for i := 10; i <= 11; i++ {
		p := point(i)
		pts = append(pts, p)
		ops = append(ops, lsmOp{op: "insert", pt: p})
	}
	ops = append(ops,
		lsmOp{op: "compact"}, // flush + full rebuild: compaction write points
		lsmOp{op: "insert", pt: point(12)},
		lsmOp{op: "delete", pt: pts[4]},
		// no trailing flush: the surviving WAL forces replay on reopen
	)
	return ops
}

// lsmModel computes the live record set after the script's first n ops.
func lsmModel(script []lsmOp, n int) []Point {
	live := make(map[Point]bool)
	for _, o := range script[:n] {
		switch o.op {
		case "insert":
			live[o.pt] = true
		case "delete":
			delete(live, o.pt)
		}
	}
	out := make([]Point, 0, len(live))
	for p := range live {
		out = append(out, p)
	}
	return out
}

// lsmScriptPoints lists every distinct record the script touches — the Has
// probe set that pins per-record liveness exactly.
func lsmScriptPoints(script []lsmOp) []Point {
	seen := make(map[Point]bool)
	var out []Point
	for _, o := range script {
		if o.op != "insert" && o.op != "delete" {
			continue
		}
		if !seen[o.pt] {
			seen[o.pt] = true
			out = append(out, o.pt)
		}
	}
	return out
}

type lsmCrashBase struct {
	name     string
	interval bool // records are diagonal-corner interval encodings
	hasQuery bool // base answers 2-sided Query
	hasStab  bool // base answers Stab
}

func lsmCrashBases() []lsmCrashBase {
	return []lsmCrashBase{
		{"twosided", false, true, false},
		{"threeside", false, true, false},
		{"stabbing", true, true, true},
		{"segment", true, false, true},
		{"interval", true, false, true},
		{"window", false, true, false},
	}
}

// lsmSweep is one crash sweep of the write tier: a base kind, the script
// whose first seed inserts seed the build, and the buffer pool the run
// writes through (0 for none). A pool small enough to evict during a level
// build moves write-backs into the middle of flushes and compactions,
// where an eviction is the first write of a page the next manifest names.
type lsmSweep struct {
	b      lsmCrashBase
	page   int
	pool   int
	seed   int
	script []lsmOp
}

// lsmChecked is what the post-crash battery reads: an lsm index file or a
// sharded store of them.
type lsmChecked interface {
	Index
	Has(p Point) (bool, IOProfile, error)
}

// name is the sweep's subtest name: the base kind, then the pool size.
func (s lsmSweep) name() string {
	if s.pool == 0 {
		return s.b.name
	}
	return fmt.Sprintf("%s-pool%d", s.b.name, s.pool)
}

// build builds over f from the script's seed inserts and replays the rest
// through the public write path, reporting how many ops after the build
// were acknowledged before the first error, or -1 when the build itself
// failed, and how many frames the pool evicted. A nil error means the
// whole script ran and the index closed cleanly.
func (s lsmSweep) build(f disk.File) (acked int, evictions int64, err error) {
	seed := make([]Point, s.seed)
	for i, o := range s.script[:s.seed] {
		seed[i] = o.pt
	}
	ix, err := BuildDynamic(s.b.name, seed, &Options{PageSize: s.page, MemtableEntries: 4, BufferPoolPages: s.pool, testFile: f})
	if err != nil {
		return -1, 0, err
	}
	defer func() { evictions = ix.Stats().Evictions }()
	for _, o := range s.script[s.seed:] {
		switch o.op {
		case "insert":
			_, err = ix.Insert(o.pt)
		case "delete":
			_, err = ix.Delete(o.pt)
		case "flush":
			err = ix.Flush()
		case "compact":
			err = ix.Compact()
		}
		if err != nil {
			return acked, 0, err
		}
		acked++
	}
	return acked, 0, ix.Close()
}

// checkLSMState verifies the reopened index matches one candidate live set
// exactly: live count, per-record Has, and the base's query batteries.
func checkLSMState(ix lsmChecked, b lsmCrashBase, script []lsmOp, live []Point) error {
	if ix.Len() != len(live) {
		return fmt.Errorf("Len = %d, want %d", ix.Len(), len(live))
	}
	isLive := make(map[Point]bool, len(live))
	for _, p := range live {
		isLive[p] = true
	}
	for _, p := range lsmScriptPoints(script) {
		got, _, err := ix.Has(p)
		if err != nil {
			return fmt.Errorf("has %v: %w", p, err)
		}
		if got != isLive[p] {
			return fmt.Errorf("has %v = %v, want %v", p, got, isLive[p])
		}
	}
	if b.hasQuery {
		qs := [][4]int64{{math.MinInt64, math.MinInt64}, {0, 0}, {250, 400}, {700, 100}}
		if err := checkQueries(ix, ShapeTwoSided, propData{pts: live}, qs); err != nil {
			return err
		}
	}
	if b.hasStab {
		ivs := mapSlice(live, DynamicPointToInterval)
		return checkQueries(ix, ShapeStab, propData{ivs: ivs}, crashQueries[ShapeStab])
	}
	return nil
}

// check opens the surviving image and classifies the outcome; others are
// the records the store holds beside the swept file (other shards'). acked
// counts the ops acknowledged after the build, -1 when the build was cut.
// A cut build commits nothing or everything: the open fails with
// ErrNoIndex or ErrCorrupt, or holds exactly the seed. After the build a
// successful open must match the model after acked ops or after acked+1
// (the in-flight op's WAL append may have landed before the kill), a failed
// open or a query hitting a torn page must wrap ErrCorrupt, and ErrNoIndex
// is a lost commit.
func (s lsmSweep) check(open func() (lsmChecked, error), others []Point, acked int) error {
	ix, err := open()
	if err != nil {
		if acked >= 0 && errors.Is(err, ErrNoIndex) {
			return fmt.Errorf("the build was acknowledged but the image holds no index: %v", err)
		}
		return err
	}
	defer ix.Close()
	model := func(n int) []Point { return append(lsmModel(s.script, n), others...) }
	done := s.seed + max(acked, 0)
	err = checkLSMState(ix, s.b, s.script, model(done))
	if err == nil || errors.Is(err, disk.ErrCorrupt) {
		return err
	}
	if acked < 0 {
		return fmt.Errorf("cut build holds neither nothing nor the whole seed: %w", err)
	}
	if done < len(s.script) {
		if err2 := checkLSMState(ix, s.b, s.script, model(done+1)); err2 == nil || errors.Is(err2, disk.ErrCorrupt) {
			return err2
		}
	}
	return fmt.Errorf("matches neither acked=%d nor acked+1 state: %w", acked, err)
}

// run kills the sweep's build and script at every write I/O point (with
// torn-write variants). place installs each surviving file image where the
// store expects it and returns its opener; others are the records the rest
// of that store holds. Every outcome must be exact recovery or a typed
// failure, and every kind of outcome must occur.
func (s lsmSweep) run(t *testing.T, others []Point, place func(image []byte) func() (lsmChecked, error)) {
	// Instrumentation pass: a healthy run to count kill points and prove
	// the battery passes on the intact image (including the WAL replay its
	// unflushed tail forces).
	mem := disk.NewMemFile()
	count := disk.NewCrashFile(mem, -1, 0)
	acked, evictions, err := s.build(count)
	if err != nil {
		t.Fatalf("instrumentation run: %v", err)
	}
	if acked != len(s.script)-s.seed {
		t.Fatalf("instrumentation run acked %d of %d ops after the build", acked, len(s.script)-s.seed)
	}
	if s.pool > 0 && evictions == 0 {
		t.Fatalf("the %d-frame pool never evicted: no write-back lands mid-flush", s.pool)
	}
	total := count.Writes()
	if total < 20 {
		t.Fatalf("script performed only %d writes; sweep would be trivial", total)
	}
	if err := s.check(place(mem.Bytes()), others, len(s.script)-s.seed); err != nil {
		t.Fatalf("intact image fails the battery: %v", err)
	}
	t.Logf("%s: sweeping %d kill points", s.name(), total)

	recovered, noIndex, corrupt, cutBuilds := 0, 0, 0, 0
	for limit := int64(0); limit < total; limit++ {
		for _, torn := range []int{0, 13, s.page / 2} {
			mem := disk.NewMemFile()
			cf := disk.NewCrashFile(mem, limit, torn)
			acked, _, err := s.build(cf)
			if !errors.Is(err, disk.ErrCrashed) {
				t.Fatalf("limit=%d torn=%d: run err = %v, want ErrCrashed", limit, torn, err)
			}
			if acked < 0 {
				cutBuilds++
			}
			cerr := s.check(place(mem.Bytes()), others, acked)
			if uerr := acceptableCrashOutcome(cerr); uerr != nil {
				t.Fatalf("limit=%d torn=%d acked=%d: unacceptable post-crash outcome: %v", limit, torn, acked, uerr)
			}
			switch {
			case cerr == nil:
				recovered++
			case errors.Is(cerr, ErrNoIndex):
				noIndex++
			default:
				corrupt++
			}
		}
	}
	t.Logf("%s: %d recovered, %d no-index, %d detected-corrupt, %d kills inside the build", s.name(), recovered, noIndex, corrupt, cutBuilds)
	if cutBuilds == 0 {
		t.Error("no kill point landed inside the seeded build")
	}
	if recovered == 0 {
		t.Error("sweep never recovered a committed state — WAL replay is not being exercised")
	}
	if noIndex == 0 {
		t.Error("sweep never saw ErrNoIndex — pre-commit kill points are not rolling back")
	}
	if corrupt == 0 {
		t.Error("sweep never saw a detected-corrupt image — torn writes are not being exercised")
	}
}

// TestCrashSweepLSM kills the write tier at every write I/O point of the
// scripted op stream (with torn-write variants) for every base kind, cold
// and through a 4-frame buffer pool, and asserts the reopened index never
// yields a silently wrong answer: it holds exactly the acknowledged updates
// (± the one in flight) or fails loudly.
func TestCrashSweepLSM(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is quadratic in script I/Os; skipped in -short")
	}
	for _, b := range lsmCrashBases() {
		for _, pool := range []int{0, 4} {
			s := lsmSweep{b: b, page: crashPage(b.name), pool: pool, seed: lsmCrashSeed, script: lsmCrashScript(b.interval)}
			t.Run(s.name(), func(t *testing.T) {
				t.Parallel()
				img := filepath.Join(t.TempDir(), "crashed.pc")
				s.run(t, nil, func(image []byte) func() (lsmChecked, error) {
					if err := os.WriteFile(img, image, 0o644); err != nil {
						t.Fatal(err)
					}
					return func() (lsmChecked, error) { return OpenDynamic(img) }
				})
			})
		}
	}
}
