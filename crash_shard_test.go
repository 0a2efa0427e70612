package pathcache

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/engine"
	"pathcache/internal/shard"
)

// Crash sweep for the sharded tier: kill the shard-map manifest at every
// write I/O point of a commit (with torn-write variants), and every write
// point of a shard file's build, then reopen through the public API. The
// §8 contract extends to the directory: the store either recovers a map
// that was committed — never a partial partition — or fails cleanly with
// ErrNoIndex / ErrCorrupt.

// shardMapsEqual reports whether two decoded maps are identical.
func shardMapsEqual(a, b *shard.Map) bool {
	if a.Epoch != b.Epoch || a.Seq != b.Seq || a.Kind != b.Kind || a.Base != b.Base {
		return false
	}
	if len(a.Splits) != len(b.Splits) || len(a.Files) != len(b.Files) {
		return false
	}
	for i := range a.Splits {
		if a.Splits[i] != b.Splits[i] {
			return false
		}
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			return false
		}
	}
	return true
}

// copyShardDir clones a sharded store directory for one sweep iteration.
func copyShardDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replayManifest re-runs a manifest commit sequence over a crash-injected
// file and returns the first error.
func replayManifest(f disk.File, pageSize int, maps ...*shard.Map) error {
	be, err := engine.New(engine.Config{File: f, PageSize: pageSize})
	if err != nil {
		return err
	}
	for _, m := range maps {
		if err := shard.Save(be, m); err != nil {
			return err
		}
	}
	return be.Close()
}

// TestCrashSweepShardMap sweeps the manifest commit itself: map A commits,
// then the process dies at every write point of map B's commit. The
// surviving image must decode to exactly A, exactly B, ErrNoIndex or a
// detected-corrupt error — a partial or blended map fails the sweep.
func TestCrashSweepShardMap(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is quadratic in commit I/Os; skipped in -short")
	}
	mapA := &shard.Map{Epoch: 1, Seq: 2, Kind: 1, Splits: []int64{500},
		Files: []string{"shard-0000.pc", "shard-0001.pc"}}
	mapB := &shard.Map{Epoch: 2, Seq: 5, Kind: 1, Splits: []int64{300, 700},
		Files: []string{"shard-0002.pc", "shard-0003.pc", "shard-0004.pc"}}

	// Instrumentation pass: count the write points and prove the intact
	// image decodes to B.
	mem := disk.NewMemFile()
	count := disk.NewCrashFile(mem, -1, 0)
	if err := replayManifest(count, crashPageSize, mapA, mapB); err != nil {
		t.Fatalf("instrumentation replay: %v", err)
	}
	total := count.Writes()
	if total < 6 {
		t.Fatalf("manifest replay performed only %d writes; sweep would be trivial", total)
	}
	dir := t.TempDir()
	img := filepath.Join(dir, "manifest.pc")
	if err := os.WriteFile(img, mem.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loadImage := func() (*shard.Map, error) {
		be, err := engine.Open(img)
		if err != nil {
			return nil, err
		}
		defer be.Close()
		return shard.Load(be)
	}
	if m, err := loadImage(); err != nil || !shardMapsEqual(m, mapB) {
		t.Fatalf("intact image: m=%+v err=%v, want map B", m, err)
	}
	t.Logf("sweeping %d manifest kill points", total)

	sawA, sawB, noIndex, corrupt := 0, 0, 0, 0
	for limit := int64(0); limit < total; limit++ {
		for _, torn := range []int{0, 13, crashPageSize / 2} {
			mem := disk.NewMemFile()
			cf := disk.NewCrashFile(mem, limit, torn)
			err := replayManifest(cf, crashPageSize, mapA, mapB)
			if !errors.Is(err, disk.ErrCrashed) {
				t.Fatalf("limit=%d torn=%d: replay err = %v, want ErrCrashed", limit, torn, err)
			}
			if err := os.WriteFile(img, mem.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			m, lerr := loadImage()
			switch {
			case lerr == nil && shardMapsEqual(m, mapA):
				sawA++
			case lerr == nil && shardMapsEqual(m, mapB):
				sawB++
			case lerr == nil:
				t.Fatalf("limit=%d torn=%d: loaded a map that is neither A nor B: %+v", limit, torn, m)
			case errors.Is(lerr, ErrNoIndex):
				noIndex++
			case errors.Is(lerr, disk.ErrCorrupt):
				corrupt++
			default:
				t.Fatalf("limit=%d torn=%d: unacceptable post-crash outcome: %v", limit, torn, lerr)
			}
		}
	}
	t.Logf("%d saw-A, %d saw-B, %d no-index, %d detected-corrupt", sawA, sawB, noIndex, corrupt)
	// Every flavor must appear: kills before A's flip roll back to
	// ErrNoIndex, kills between the flips keep A, and torn flips are
	// detected — a sweep missing one is not exercising the protocol.
	if sawA == 0 {
		t.Error("sweep never recovered map A — the pre-flip image is not holding the old commit")
	}
	if noIndex == 0 {
		t.Error("sweep never saw ErrNoIndex — early kill points are not rolling back")
	}
	if corrupt == 0 {
		t.Error("sweep never saw a detected-corrupt image — torn writes are not being exercised")
	}
}

// TestCrashSweepShardStore sweeps crashes through the whole directory
// store: a manifest re-commit dying mid-flip, and a shard file's build
// dying at every write point. OpenSharded must recover exact answers,
// report ErrNoIndex, or fail with ErrCorrupt — never serve wrong results.
func TestCrashSweepShardStore(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is quadratic in build I/Os; skipped in -short")
	}
	pts := crashPoints()
	src := t.TempDir()
	store := filepath.Join(src, "store")
	s, err := BuildShardedPoints(store, "twosided", pts, ShardPlan{Shards: 2, Scheme: SchemeSegmented}, &Options{PageSize: crashPageSize})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	splits := s.Splits()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(splits) != 1 {
		t.Fatalf("want 1 split key, got %v", splits)
	}
	// check reopens a (possibly crashed) store copy and runs the battery.
	check := func(dir string) error {
		s, err := OpenSharded(dir, nil)
		if err != nil {
			return err
		}
		defer s.Close()
		return checkQueries(s, ShapeTwoSided, propData{pts: pts}, crashQueries[ShapeTwoSided])
	}
	if err := check(store); err != nil {
		t.Fatalf("intact store fails the battery: %v", err)
	}

	t.Run("manifest-recommit", func(t *testing.T) {
		// Load the committed map, then replay commit A followed by a
		// rebalance-style no-op commit B (same partition, next epoch) over a
		// crash file, killing B's commit at every point.
		mbe, err := engine.Open(filepath.Join(store, shard.MapFileName))
		if err != nil {
			t.Fatal(err)
		}
		mapA, err := shard.Load(mbe)
		mbe.Close()
		if err != nil {
			t.Fatal(err)
		}
		mapB := mapA.Clone()
		mapB.Epoch++

		mem := disk.NewMemFile()
		count := disk.NewCrashFile(mem, -1, 0)
		if err := replayManifest(count, crashPageSize, mapA, mapB); err != nil {
			t.Fatalf("instrumentation replay: %v", err)
		}
		total := count.Writes()
		t.Logf("sweeping %d manifest kill points inside the store", total)
		recovered, failed := 0, 0
		for limit := int64(0); limit < total; limit++ {
			for _, torn := range []int{0, 13, crashPageSize / 2} {
				mem := disk.NewMemFile()
				cf := disk.NewCrashFile(mem, limit, torn)
				if err := replayManifest(cf, crashPageSize, mapA, mapB); !errors.Is(err, disk.ErrCrashed) {
					t.Fatalf("limit=%d torn=%d: replay err = %v, want ErrCrashed", limit, torn, err)
				}
				scratch := filepath.Join(t.TempDir(), "store")
				copyShardDir(t, store, scratch)
				if err := os.WriteFile(filepath.Join(scratch, shard.MapFileName), mem.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				cerr := check(scratch)
				if uerr := acceptableCrashOutcome(cerr); uerr != nil {
					t.Fatalf("limit=%d torn=%d: unacceptable post-crash outcome: %v", limit, torn, uerr)
				}
				if cerr == nil {
					recovered++
				} else {
					failed++
				}
			}
		}
		t.Logf("%d recovered, %d clean failures", recovered, failed)
		if recovered == 0 {
			t.Error("sweep never recovered — map A's commit should survive kills during B's")
		}
		if failed == 0 {
			t.Error("sweep never failed cleanly — early kill points are not being exercised")
		}
	})

	t.Run("shard-file", func(t *testing.T) {
		// Rebuild shard 0's exact contents over a crash file and drop each
		// crashed image into a store copy beside the committed manifest.
		var sub []Point
		for _, p := range pts {
			if p.X < splits[0] {
				sub = append(sub, p)
			}
		}
		buildShard := func(f disk.File) error {
			ix, err := NewTwoSidedIndex(sub, SchemeSegmented, &Options{PageSize: crashPageSize, testFile: f})
			if err != nil {
				return err
			}
			return ix.Close()
		}
		mem := disk.NewMemFile()
		count := disk.NewCrashFile(mem, -1, 0)
		if err := buildShard(count); err != nil {
			t.Fatalf("instrumentation build: %v", err)
		}
		total := count.Writes()
		t.Logf("sweeping %d shard-file kill points", total)
		recovered, noIndex, corrupt := 0, 0, 0
		for limit := int64(0); limit < total; limit++ {
			for _, torn := range []int{0, 13, crashPageSize / 2} {
				mem := disk.NewMemFile()
				cf := disk.NewCrashFile(mem, limit, torn)
				if err := buildShard(cf); !errors.Is(err, disk.ErrCrashed) {
					t.Fatalf("limit=%d torn=%d: build err = %v, want ErrCrashed", limit, torn, err)
				}
				scratch := filepath.Join(t.TempDir(), "store")
				copyShardDir(t, store, scratch)
				if err := os.WriteFile(filepath.Join(scratch, "shard-0000.pc"), mem.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				cerr := check(scratch)
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
		t.Logf("%d recovered, %d no-index, %d detected-corrupt", recovered, noIndex, corrupt)
		if noIndex == 0 {
			t.Error("sweep never saw ErrNoIndex — a shard whose build never committed must surface it")
		}
		if corrupt == 0 {
			t.Error("sweep never saw a detected-corrupt shard — torn writes are not being exercised")
		}
	})
}
