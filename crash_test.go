package pathcache

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// crashDataset is the fixed input every kind builds from: small enough that
// a full every-write sweep stays quadratic-cheap, large enough to span
// multiple pages and levels at the 128-byte page size (B = 4).
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

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		if pts[i].Y != pts[j].Y {
			return pts[i].Y < pts[j].Y
		}
		return pts[i].ID < pts[j].ID
	})
}

func sortIntervals(ivs []Interval) {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		if ivs[i].Hi != ivs[j].Hi {
			return ivs[i].Hi < ivs[j].Hi
		}
		return ivs[i].ID < ivs[j].ID
	})
}

func samePoints(got, want []Point) bool {
	if len(got) != len(want) {
		return false
	}
	sortPoints(got)
	sortPoints(want)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func sameIntervals(got, want []Interval) bool {
	if len(got) != len(want) {
		return false
	}
	sortIntervals(got)
	sortIntervals(want)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// crashKind describes one persisted index kind to sweep: how to build it
// over a File, and how to reopen the surviving image and check the full
// query battery against the in-memory reference.
type crashKind struct {
	name     string
	pageSize int
	// build runs the public build path with the given injected file and
	// page size and closes the index; it returns the first error anywhere
	// on that path.
	build func(f disk.File, ps int) error
	// check reopens the image at path and compares queries to the
	// reference; it must return an error for any mismatch and nil only for
	// an exact match.
	check func(path string) error
}

func pointQueryBattery(name string, pts []Point, query func(a, b int64) ([]Point, IOProfile, error), want func(a, b int64) []Point) error {
	for _, q := range [][2]int64{{0, 0}, {250, 400}, {500, 500}, {900, 100}, {1000, 1000}} {
		got, _, err := query(q[0], q[1])
		if err != nil {
			return fmt.Errorf("%s query(%d,%d): %w", name, q[0], q[1], err)
		}
		if !samePoints(got, want(q[0], q[1])) {
			return fmt.Errorf("%s query(%d,%d): silent mismatch: got %d results, want %d", name, q[0], q[1], len(got), len(want(q[0], q[1])))
		}
	}
	return nil
}

func stabBattery(name string, ivs []Interval, stab func(q int64) ([]Interval, IOProfile, error)) error {
	for _, q := range []int64{0, 150, 400, 650, 999, 1300} {
		got, _, err := stab(q)
		if err != nil {
			return fmt.Errorf("%s stab(%d): %w", name, q, err)
		}
		var want []Interval
		for _, iv := range ivs {
			if iv.Lo <= q && q <= iv.Hi {
				want = append(want, iv)
			}
		}
		if !sameIntervals(got, want) {
			return fmt.Errorf("%s stab(%d): silent mismatch: got %d results, want %d", name, q, len(got), len(want))
		}
	}
	return nil
}

func crashKinds() []crashKind {
	pts := crashPoints()
	ivs := crashIntervals()

	twoSidedWant := func(a, b int64) []Point {
		var want []Point
		for _, p := range pts {
			if p.X >= a && p.Y >= b {
				want = append(want, p)
			}
		}
		return want
	}

	return []crashKind{
		{
			name:     "twosided",
			pageSize: crashPageSize,
			build: func(f disk.File, ps int) error {
				ix, err := NewTwoSidedIndex(pts, SchemeSegmented, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return ix.Close()
			},
			check: func(path string) error {
				ix, err := OpenTwoSidedIndex(path)
				if err != nil {
					return err
				}
				defer ix.Close()
				return pointQueryBattery("twosided", pts, ix.Query, twoSidedWant)
			},
		},
		{
			// The 3-sided skeletal nodes carry a larger payload than a
			// 128-byte page holds; sweep it at 256.
			name:     "threeside",
			pageSize: 2 * crashPageSize,
			build: func(f disk.File, ps int) error {
				ix, err := NewThreeSidedIndex(pts, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return ix.Close()
			},
			check: func(path string) error {
				ix, err := OpenThreeSidedIndex(path)
				if err != nil {
					return err
				}
				defer ix.Close()
				for _, q := range [][3]int64{{0, 1000, 0}, {200, 700, 300}, {450, 550, 800}, {900, 950, 0}} {
					got, _, err := ix.QueryThreeSided(q[0], q[1], q[2])
					if err != nil {
						return fmt.Errorf("threeside query%v: %w", q, err)
					}
					var want []Point
					for _, p := range pts {
						if q[0] <= p.X && p.X <= q[1] && p.Y >= q[2] {
							want = append(want, p)
						}
					}
					if !samePoints(got, want) {
						return fmt.Errorf("threeside query%v: silent mismatch: got %d results, want %d", q, len(got), len(want))
					}
				}
				return nil
			},
		},
		{
			name:     "stabbing",
			pageSize: crashPageSize,
			build: func(f disk.File, ps int) error {
				six, err := NewStabbingIndex(ivs, SchemeSegmented, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return six.Close()
			},
			check: func(path string) error {
				six, err := OpenStabbingIndex(path)
				if err != nil {
					return err
				}
				defer six.Close()
				return stabBattery("stabbing", ivs, six.Stab)
			},
		},
		{
			name:     "segment",
			pageSize: crashPageSize,
			build: func(f disk.File, ps int) error {
				ix, err := NewSegmentIndex(ivs, true, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return ix.Close()
			},
			check: func(path string) error {
				ix, err := OpenSegmentIndex(path)
				if err != nil {
					return err
				}
				defer ix.Close()
				return stabBattery("segment", ivs, ix.Stab)
			},
		},
		{
			// Interval skeletal nodes also outgrow a 128-byte page.
			name:     "interval",
			pageSize: 2 * crashPageSize,
			build: func(f disk.File, ps int) error {
				ix, err := NewIntervalIndex(ivs, true, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return ix.Close()
			},
			check: func(path string) error {
				ix, err := OpenIntervalIndex(path)
				if err != nil {
					return err
				}
				defer ix.Close()
				return stabBattery("interval", ivs, ix.Stab)
			},
		},
		{
			name:     "window",
			pageSize: crashPageSize,
			build: func(f disk.File, ps int) error {
				ix, err := NewWindowIndex(pts, &Options{PageSize: ps, testFile: f})
				if err != nil {
					return err
				}
				return ix.Close()
			},
			check: func(path string) error {
				ix, err := OpenWindowIndex(path)
				if err != nil {
					return err
				}
				defer ix.Close()
				for _, q := range [][4]int64{{0, 1000, 0, 1000}, {200, 700, 100, 600}, {480, 520, 480, 520}} {
					got, _, err := ix.WindowQuery(q[0], q[1], q[2], q[3])
					if err != nil {
						return fmt.Errorf("window query%v: %w", q, err)
					}
					var want []Point
					for _, p := range pts {
						if q[0] <= p.X && p.X <= q[1] && q[2] <= p.Y && p.Y <= q[3] {
							want = append(want, p)
						}
					}
					if !samePoints(got, want) {
						return fmt.Errorf("window query%v: silent mismatch: got %d results, want %d", q, len(got), len(want))
					}
				}
				return nil
			},
		},
	}
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
	for _, k := range crashKinds() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()

			// Instrumentation pass: a healthy build to count kill points and
			// prove the check battery passes on the intact image.
			mem := disk.NewMemFile()
			count := disk.NewCrashFile(mem, -1, 0)
			if err := k.build(count, k.pageSize); err != nil {
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
			if err := k.check(intact); err != nil {
				t.Fatalf("intact image fails the battery: %v", err)
			}
			t.Logf("%s: sweeping %d kill points", k.name, total)

			img := filepath.Join(dir, "crashed.pc")
			recovered, noIndex, corrupt := 0, 0, 0
			// Tear variants: clean kill between writes (0), a tear inside
			// the 52-byte superblock record (13), and a half-page tear.
			for limit := int64(0); limit < total; limit++ {
				for _, torn := range []int{0, 13, k.pageSize / 2} {
					mem := disk.NewMemFile()
					cf := disk.NewCrashFile(mem, limit, torn)
					err := k.build(cf, k.pageSize)
					if !errors.Is(err, disk.ErrCrashed) {
						t.Fatalf("limit=%d torn=%d: build err = %v, want ErrCrashed", limit, torn, err)
					}
					if err := os.WriteFile(img, mem.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					cerr := k.check(img)
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
