package pathcache

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pathcache/internal/disk"
)

// The crash-simulation harness: for every index kind that persists, run the
// whole public build path over a CrashFile, kill it at EVERY write I/O point
// (with torn-write variants), then reopen the surviving image through the
// public Open function. The contract under test is the one DESIGN.md states
// for the on-disk format: after any crash the file either
//
//   - reopens and answers the full query battery exactly like an in-memory
//     reference (the metadata commit landed, so the whole build landed),
//   - reopens as a store but reports ErrNoIndex (the build never committed),
//     or
//   - fails to open with an error wrapping disk.ErrCorrupt (a torn write
//     was detected by a checksum).
//
// A silently wrong answer — open succeeds, queries return, results differ —
// fails the sweep.

const crashPageSize = disk.MinFilePageSize

// crashPoints and crashIntervals are the fixed inputs every kind builds
// from: small enough that a full every-write sweep stays quadratic-cheap,
// large enough to span multiple pages and levels at the 128-byte page size
// (B = 4).
func crashPoints() []Point {
	rng := rand.New(rand.NewSource(41))
	pts := make([]Point, 28)
	for i := range pts {
		pts[i] = Point{X: rng.Int63n(1000), Y: rng.Int63n(1000), ID: uint64(i + 1)}
	}
	return pts
}

func crashIntervals() []Interval {
	rng := rand.New(rand.NewSource(43))
	ivs := make([]Interval, 24)
	for i := range ivs {
		lo := rng.Int63n(1000)
		ivs[i] = Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(200), ID: uint64(i + 1)}
	}
	return ivs
}

// crashPage is the page size a kind's sweep runs at: crashPageSize, or
// twice that for the 3-sided and interval kinds, whose skeletal nodes carry
// a larger payload than a 128-byte page holds.
func crashPage(kind string) int {
	if kind == "threeside" || kind == "interval" {
		return 2 * crashPageSize
	}
	return crashPageSize
}

// crashQueries is the fixed query battery per shape, checked against the
// oracle over the crash dataset.
var crashQueries = map[Shape][][4]int64{
	ShapeTwoSided:   {{0, 0}, {250, 400}, {500, 500}, {900, 100}, {1000, 1000}},
	ShapeThreeSided: {{0, 1000, 0}, {200, 700, 300}, {450, 550, 800}, {900, 950, 0}},
	ShapeWindow:     {{0, 1000, 0, 1000}, {200, 700, 100, 600}, {480, 520, 480, 520}},
	ShapeStab:       {{0}, {150}, {400}, {650}, {999}, {1300}},
}

// acceptableCrashOutcome classifies a reopen/check error: nil for a clean
// error the recovery contract allows, the error itself otherwise.
func acceptableCrashOutcome(err error) error {
	switch {
	case err == nil:
		return nil // full recovery, queries matched
	case errors.Is(err, disk.ErrCorrupt):
		return nil // detected torn write
	case errors.Is(err, ErrNoIndex):
		return nil // build never committed
	default:
		return err
	}
}

// TestCrashSweepIndexes is the tentpole harness: build every persisted index
// kind over a crash-injected file, killing the process at every single write
// I/O point, and assert the surviving image never yields a silently wrong
// answer when reopened through the public API.
func TestCrashSweepIndexes(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is quadratic in build I/Os; skipped in -short")
	}
	for _, k := range propKinds {
		if !k.served() {
			continue
		}
		page := crashPage(k.name)
		d := propData{pts: crashPoints()}
		if k.shape == ShapeStab {
			d = propData{ivs: crashIntervals()}
		}
		// build runs the public build path over f and closes the index;
		// check reopens the image at path and requires the battery to
		// match the oracle exactly.
		build := func(f disk.File) error {
			ix, err := k.build(d, &Options{PageSize: page, testFile: f})
			if err != nil {
				return err
			}
			return ix.Close()
		}
		check := func(path string) error {
			ix, err := k.open(path)
			if err != nil {
				return err
			}
			defer ix.Close()
			return checkQueries(ix, k.shape, d, crashQueries[k.shape])
		}
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()

			// Instrumentation pass: a healthy build to count kill points and
			// prove the check battery passes on the intact image.
			mem := disk.NewMemFile()
			count := disk.NewCrashFile(mem, -1, 0)
			if err := build(count); err != nil {
				t.Fatalf("instrumentation build: %v", err)
			}
			total := count.Writes()
			if total < 10 {
				t.Fatalf("build performed only %d writes; sweep would be trivial", total)
			}
			dir := t.TempDir()
			intact := filepath.Join(dir, "intact.pc")
			if err := os.WriteFile(intact, mem.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := check(intact); err != nil {
				t.Fatalf("intact image fails the battery: %v", err)
			}
			t.Logf("%s: sweeping %d kill points", k.name, total)

			img := filepath.Join(dir, "crashed.pc")
			recovered, noIndex, corrupt := 0, 0, 0
			// Tear variants: clean kill between writes (0), a tear inside
			// the 52-byte superblock record (13), and a half-page tear.
			for limit := int64(0); limit < total; limit++ {
				for _, torn := range []int{0, 13, page / 2} {
					mem := disk.NewMemFile()
					cf := disk.NewCrashFile(mem, limit, torn)
					err := build(cf)
					if !errors.Is(err, disk.ErrCrashed) {
						t.Fatalf("limit=%d torn=%d: build err = %v, want ErrCrashed", limit, torn, err)
					}
					if err := os.WriteFile(img, mem.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					cerr := check(img)
					if uerr := acceptableCrashOutcome(cerr); uerr != nil {
						t.Fatalf("limit=%d torn=%d: unacceptable post-crash outcome: %v", limit, torn, uerr)
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
			t.Logf("%s: %d recovered, %d no-index, %d detected-corrupt", k.name, recovered, noIndex, corrupt)
			// Sanity on the sweep itself: early kills must be un-committed,
			// and at least one outcome of each flavor must appear — a sweep
			// that never recovers or never detects corruption means the
			// harness is not exercising what it claims.
			if noIndex == 0 {
				t.Error("sweep never saw ErrNoIndex — early kill points are not rolling back")
			}
			if corrupt == 0 {
				t.Error("sweep never saw a detected-corrupt image — torn writes are not being exercised")
			}
		})
	}
}

// TestBuildPageWrites holds a file-backed build to the I/O model's price:
// one physical write per page the file ends up holding, plus a constant —
// the two superblock slots a new store writes and the commit's superblock.
// Extending allocations write nothing; a store that zero-filled each new
// page and counted it in its own superblock paid three writes a page.
func TestBuildPageWrites(t *testing.T) {
	const n, page, slack = 20_000, 4096, 4
	rng := rand.New(rand.NewSource(47))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Int63n(1 << 30), Y: rng.Int63n(1 << 30), ID: uint64(i)}
	}
	mem := disk.NewMemFile()
	dev := disk.NewCrashFile(mem, -1, 0) // counting only
	ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: page, testFile: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	size, _ := mem.Size()
	pages := size/page - 1
	if w := dev.Writes(); w > pages+slack {
		t.Fatalf("build of %d pages made %d physical writes, want at most %d", pages, w, pages+slack)
	}
	t.Logf("build of %d pages made %d physical writes", pages, dev.Writes())
}
