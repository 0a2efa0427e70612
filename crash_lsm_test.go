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

// Crash sweep for the LSM write tier. The static sweep (crash_test.go)
// checks an all-or-nothing contract: the one build either committed or it
// did not. The write tier's contract is finer-grained because every update
// is individually acknowledged behind a durable WAL append: killing the
// process at ANY write I/O point — a WAL append, a level seal, a tombstone
// rewrite, a manifest flip, a compaction — and reopening must yield exactly
//
//   - the state after every acknowledged update, plus possibly the one
//     update that was in flight when the crash hit (its WAL append may have
//     reached the file before the kill),
//   - an error wrapping disk.ErrCorrupt (a torn page was detected by a
//     checksum — on the WAL tail this is the "torn last entry" case the
//     recovery contract explicitly allows), or
//   - ErrNoIndex (the crash predates the empty tree's first manifest
//     commit).
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

// lsmCrashScript builds the fixed op stream every base kind replays. With
// MemtableEntries=4 it crosses two automatic flushes (the second cascading
// a level merge), tombstones sealed records, forces an explicit flush and a
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
	for i := 1; i <= 9; i++ { // two automatic flushes at 4 and 8
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

// lsmModel computes the live record set after the first acked ops.
func lsmModel(script []lsmOp, acked int) []Point {
	live := make(map[Point]bool)
	for _, o := range script[:acked] {
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

// buildLSMCrash replays the script through the public write path over f,
// reporting how many ops were acknowledged before the first error. A nil
// error means the whole script ran and the index closed cleanly.
func buildLSMCrash(f disk.File, base string, ps int, script []lsmOp) (acked int, err error) {
	ix, err := BuildDynamic(base, nil, &Options{PageSize: ps, MemtableEntries: 4, testFile: f})
	if err != nil {
		return 0, err
	}
	for _, o := range script {
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
			return acked, err
		}
		acked++
	}
	return acked, ix.Close()
}

// checkLSMState verifies the reopened index matches one candidate live set
// exactly: live count, per-record Has, and the base's query batteries.
func checkLSMState(ix *LSMIndex, b lsmCrashBase, script []lsmOp, live []Point) error {
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

// checkLSMCrash reopens the surviving image and classifies the outcome. A
// successful open must match the model after acked ops or after acked+1
// (the in-flight op's WAL append may have landed before the kill); a failed
// open or a query hitting a torn page must wrap ErrCorrupt or ErrNoIndex.
func checkLSMCrash(path string, b lsmCrashBase, script []lsmOp, acked int) error {
	ix, err := OpenDynamic(path)
	if err != nil {
		return err
	}
	defer ix.Close()
	err = checkLSMState(ix, b, script, lsmModel(script, acked))
	if err == nil || errors.Is(err, disk.ErrCorrupt) {
		return err
	}
	if acked < len(script) {
		if err2 := checkLSMState(ix, b, script, lsmModel(script, acked+1)); err2 == nil || errors.Is(err2, disk.ErrCorrupt) {
			return err2
		}
	}
	return fmt.Errorf("matches neither acked=%d nor acked+1 state: %w", acked, err)
}

// TestCrashSweepLSM kills the write tier at every write I/O point of the
// scripted op stream (with torn-write variants) for every base kind, and
// asserts the reopened index never yields a silently wrong answer: it holds
// exactly the acknowledged updates (± the one in flight) or fails loudly.
func TestCrashSweepLSM(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is quadratic in script I/Os; skipped in -short")
	}
	for _, b := range lsmCrashBases() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			page := crashPage(b.name)
			script := lsmCrashScript(b.interval)

			// Instrumentation pass: a healthy run to count kill points and
			// prove the battery passes on the intact image (including the
			// WAL replay its unflushed tail forces).
			mem := disk.NewMemFile()
			count := disk.NewCrashFile(mem, -1, 0)
			acked, err := buildLSMCrash(count, b.name, page, script)
			if err != nil {
				t.Fatalf("instrumentation run: %v", err)
			}
			if acked != len(script) {
				t.Fatalf("instrumentation run acked %d of %d ops", acked, len(script))
			}
			total := count.Writes()
			if total < 20 {
				t.Fatalf("script performed only %d writes; sweep would be trivial", total)
			}
			dir := t.TempDir()
			intact := filepath.Join(dir, "intact.pc")
			if err := os.WriteFile(intact, mem.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := checkLSMCrash(intact, b, script, len(script)); err != nil {
				t.Fatalf("intact image fails the battery: %v", err)
			}
			t.Logf("%s: sweeping %d kill points", b.name, total)

			img := filepath.Join(dir, "crashed.pc")
			recovered, noIndex, corrupt := 0, 0, 0
			for limit := int64(0); limit < total; limit++ {
				for _, torn := range []int{0, 13, page / 2} {
					mem := disk.NewMemFile()
					cf := disk.NewCrashFile(mem, limit, torn)
					acked, err := buildLSMCrash(cf, b.name, page, script)
					if !errors.Is(err, disk.ErrCrashed) {
						t.Fatalf("limit=%d torn=%d: run err = %v, want ErrCrashed", limit, torn, err)
					}
					if err := os.WriteFile(img, mem.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					cerr := checkLSMCrash(img, b, script, acked)
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
			t.Logf("%s: %d recovered, %d no-index, %d detected-corrupt", b.name, recovered, noIndex, corrupt)
			if recovered == 0 {
				t.Error("sweep never recovered a committed state — WAL replay is not being exercised")
			}
			if noIndex == 0 {
				t.Error("sweep never saw ErrNoIndex — pre-commit kill points are not rolling back")
			}
			if corrupt == 0 {
				t.Error("sweep never saw a detected-corrupt image — torn writes are not being exercised")
			}
		})
	}
}
