package pathcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// Build golden battery: every static kind and scheme is built over fixed
// seeded inputs on a file-backed store, and two digests are compared with
// constants recorded before construction switched to the sort-once
// algorithm (DESIGN.md §2):
//
//   - file: sha256 of the store file after Close — the bytes on disk;
//   - writes: sha256 of the pager call sequence the build made — every
//     Alloc's id, every Write's id and page bytes, every Free's id, in
//     order. This pins the page-write sequence the crash sweeps kill at.
//
// A construction change that reorders, adds or drops a single page write
// fails here. Regenerate the table only for an intentional format change:
//
//	go test -run TestBuildGolden -buildgolden.print
var buildGoldenPrint = flag.Bool("buildgolden.print", false, "print the build golden table instead of checking it")

// goldenPageSize gives B = 20 points per page on a file-backed store.
const goldenPageSize = 512

type goldenInput struct {
	name string
	propData
}

// goldenInputs are the fixed datasets: a coordinate domain of 8 (so most
// coordinates repeat, and some whole records too), n < B, n = B, and a
// multi-level n that also spans several two-level regions.
func goldenInputs(b int) []goldenInput {
	mk := func(name string, n int, domain int64, seed int64) goldenInput {
		rng := rand.New(rand.NewSource(seed))
		in := goldenInput{name, propData{make([]Point, n), make([]Interval, n)}}
		for i := 0; i < n; i++ {
			id := uint64(i + 1)
			if domain <= 8 && i%7 == 3 {
				id = 1 // whole-record duplicates next to coordinate duplicates
			}
			in.pts[i] = Point{X: rng.Int63n(domain), Y: rng.Int63n(domain), ID: id}
			lo := rng.Int63n(domain)
			in.ivs[i] = Interval{Lo: lo, Hi: lo + rng.Int63n(domain/4+1), ID: id}
		}
		return in
	}
	return []goldenInput{
		mk("dup", 400, 8, 1501),
		mk("small", b-3, 1000, 1502),
		mk("eqB", b, 1000, 1503),
		mk("multi", 3000, 100_000, 1504),
	}
}

// writeTrace hashes every mutating pager call in order. A build over
// several files (a sharded store) wraps each file's pager in its own
// writeTrace sharing one mutex and hash.
type writeTrace struct {
	disk.Pager
	mu *sync.Mutex
	h  hash.Hash
}

func (w *writeTrace) event(op byte, id disk.PageID, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var hdr [9]byte
	hdr[0] = op
	binary.LittleEndian.PutUint64(hdr[1:], uint64(id))
	w.h.Write(hdr[:])
	w.h.Write(data)
}

func (w *writeTrace) Alloc() (disk.PageID, error) {
	id, err := w.Pager.Alloc()
	if err == nil {
		w.event('A', id, nil)
	}
	return id, err
}

func (w *writeTrace) Free(id disk.PageID) error {
	w.event('F', id, nil)
	return w.Pager.Free(id)
}

func (w *writeTrace) Write(id disk.PageID, buf []byte) error {
	w.event('W', id, buf[:w.PageSize()])
	return w.Pager.Write(id, buf)
}

// goldenDigests builds one case and returns its file and write-trace
// digests.
func goldenDigests(t *testing.T, k propKind, in goldenInput) (file, writes string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.pc")
	opts, writesDigest := goldenOptions(path)
	ix, err := k.build(in.propData, opts)
	if err != nil {
		t.Fatalf("%v/%s: build: %v", k, in.name, err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	fh := sha256.New()
	hashFile(t, fh, path)
	return hex.EncodeToString(fh.Sum(nil))[:16], writesDigest()
}

// goldenOptions is the golden build configuration for path: 512-byte
// pages and every file's pager wrapped in a writeTrace feeding one hash,
// whose truncated digest the returned function reports.
func goldenOptions(path string) (*Options, func() string) {
	mu, h := &sync.Mutex{}, sha256.New()
	opts := &Options{
		PageSize: goldenPageSize,
		Path:     path,
		WrapPager: func(p disk.Pager) disk.Pager {
			return &writeTrace{Pager: p, mu: mu, h: h}
		},
	}
	return opts, func() string { return hex.EncodeToString(h.Sum(nil))[:16] }
}

func hashFile(t *testing.T, h hash.Hash, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.Copy(h, f); err != nil {
		t.Fatal(err)
	}
}

// lsmGoldenDigests builds a dynamic index over base from a quarter of in's
// records, inserts the rest through the public update path (MemtableEntries
// 64 seals several levels and runs cascade merges), deletes every 64th
// record (a tombstone chain, below the compaction cap), and returns the
// file and write-trace digests. Every flush rewrites the manifest, so the
// digests pin its bytes.
func lsmGoldenDigests(t *testing.T, base string, in goldenInput) (file, writes string) {
	t.Helper()
	pts := in.pts
	if base == "interval" {
		pts = make([]Point, len(in.ivs))
		for i, iv := range in.ivs {
			pts[i] = IntervalToDynamicPoint(iv)
		}
	}
	path := filepath.Join(t.TempDir(), "golden.pc")
	opts, writesDigest := goldenOptions(path)
	opts.MemtableEntries = 64
	seed := len(pts) / 4
	ix, err := BuildDynamic(base, pts[:seed], opts)
	if err != nil {
		t.Fatalf("lsm-%s/%s: build: %v", base, in.name, err)
	}
	for _, p := range pts[seed:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(pts); i += 64 {
		if _, err := ix.Delete(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if lv := len(ix.Levels()); lv < 2 {
		t.Fatalf("lsm-%s/%s: %d sealed levels, want several", base, in.name, lv)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	fh := sha256.New()
	hashFile(t, fh, path)
	return hex.EncodeToString(fh.Sum(nil))[:16], writesDigest()
}

// shardGoldenDigests builds a 4-shard twosided store from in and returns a
// digest over every file of the directory in name order (name, then
// bytes) — the shard map's file included — and the shards' write-trace
// digest.
func shardGoldenDigests(t *testing.T, in goldenInput) (file, writes string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "golden.shards")
	opts, writesDigest := goldenOptions("")
	s, err := BuildShardedPoints(dir, "twosided", in.pts, ShardPlan{Shards: 4, Scheme: SchemeSegmented}, opts)
	if err != nil {
		t.Fatalf("sharded/%s: build: %v", in.name, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 5 {
		t.Fatalf("sharded/%s: %d files, want 4 shards and the map", in.name, len(ents))
	}
	fh := sha256.New()
	for _, e := range ents {
		io.WriteString(fh, e.Name())
		hashFile(t, fh, filepath.Join(dir, e.Name()))
	}
	return hex.EncodeToString(fh.Sum(nil))[:16], writesDigest()
}

func TestBuildGolden(t *testing.T) {
	b := disk.ChainCap(goldenPageSize-4, record.PointSize) // file stores reserve a 4-byte trailer
	if b != 20 {
		t.Fatalf("B = %d at %d-byte pages, want 20", b, goldenPageSize)
	}
	got := map[string]string{}
	for _, k := range propKinds {
		// The digests were recorded when stabbing was built only under
		// the Segmented scheme, and keyed by the bare kind name.
		name := k.String()
		if k.name == "stabbing" {
			if !k.served() {
				continue
			}
			name = k.name
		}
		for _, in := range goldenInputs(b) {
			// The /sorted suffix names the page format the digests were
			// recorded under; the bytes have not changed since.
			key := fmt.Sprintf("%s/%s/sorted", name, in.name)
			file, writes := goldenDigests(t, k, in)
			got[key] = file + " " + writes
		}
	}
	for _, in := range goldenInputs(b) {
		if in.name != "multi" {
			continue
		}
		for _, base := range []string{"twosided", "interval"} {
			file, writes := lsmGoldenDigests(t, base, in)
			got["lsm-"+base+"/"+in.name+"/sorted"] = file + " " + writes
		}
		file, writes := shardGoldenDigests(t, in)
		got["sharded-twosided-4/"+in.name+"/sorted"] = file + " " + writes
	}
	if *buildGoldenPrint {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("build golden table:\n%s", sb.String())
		return
	}
	if len(got) != len(buildGolden) {
		t.Errorf("%d cases built, golden table has %d", len(got), len(buildGolden))
	}
	for key, want := range buildGolden {
		if got[key] != want {
			t.Errorf("%s: file/writes digests %q, want %q", key, got[key], want)
		}
	}
}

// buildGolden maps kind/input/format to "file-digest writes-digest"
// (truncated sha256), recorded on the per-node-sort construction. The lsm-
// and sharded- rows were recorded before the write tier's manifest, the
// shard map and the engine metas moved onto one shared codec
// (internal/disk/codec.go); that move changed no byte.
var buildGolden = map[string]string{
	"lsm-interval/multi/sorted":          "a7598aecd2b929ec f6f2ca2a00417cf0",
	"lsm-twosided/multi/sorted":          "622f02c3e5876b02 eb2df4a165b52037",
	"sharded-twosided-4/multi/sorted":    "fee1ae0b244f7cd3 9926fc0b22c853f6",
	"interval-cached=false/dup/sorted":   "5e43deb192026f21 f96623832e8407a9",
	"interval-cached=false/eqB/sorted":   "3e988ac35a2f299f a337a5a71cac52c1",
	"interval-cached=false/multi/sorted": "ffb66769af5f9096 bf250a140483dc9b",
	"interval-cached=false/small/sorted": "7adc821b98117661 60d361ec2b278d22",
	"interval-cached=true/dup/sorted":    "3c52d86802d9e3c5 f96623832e8407a9",
	"interval-cached=true/eqB/sorted":    "3da54fda877b4fb2 9adabbe05cd4bce5",
	"interval-cached=true/multi/sorted":  "6d59dd063e7e3297 54483c09844df5c7",
	"interval-cached=true/small/sorted":  "11434435f129f852 dc357b68be05702a",
	"segment-cached=false/dup/sorted":    "7a8160d8cd4c1af5 a0268a1907dd6c08",
	"segment-cached=false/eqB/sorted":    "ac4107d432c4fddd 145d94bc53583a48",
	"segment-cached=false/multi/sorted":  "0430ddf12572b711 287b4af2f992b5d0",
	"segment-cached=false/small/sorted":  "a89a2946d9d3370c ff8fda24768c6702",
	"segment-cached=true/dup/sorted":     "d912f11bb8890fa4 a0268a1907dd6c08",
	"segment-cached=true/eqB/sorted":     "e452659a63dfc2ac 145d94bc53583a48",
	"segment-cached=true/multi/sorted":   "fae0f2bfa5fee11d 52da236ef4e1e4d0",
	"segment-cached=true/small/sorted":   "9d3488fecc223afa ff8fda24768c6702",
	"stabbing/dup/sorted":                "91d630c2d47c2c20 af8630133ea670fd",
	"stabbing/eqB/sorted":                "103ad4d26164f75c 7de9b6930e45bd95",
	"stabbing/multi/sorted":              "2ae15a1d28721943 970bc0e15b39f95c",
	"stabbing/small/sorted":              "eedaa911ab442326 c8b87099033315a4",
	"threeside/dup/sorted":               "6dcece8fa5b41288 80f8b04216a42992",
	"threeside/eqB/sorted":               "ce796ac1b45e1bd0 4ff43e77a730c2a5",
	"threeside/multi/sorted":             "e70235d603ef952c 39b8dd100ba6b3b0",
	"threeside/small/sorted":             "8a7281da87f0939a 11cf23607a1add72",
	"twosided-basic/dup/sorted":          "b647bb7040850ffd 143552183d0c323b",
	"twosided-basic/eqB/sorted":          "1ebce736046d7427 08d300efcda24c1f",
	"twosided-basic/multi/sorted":        "693c80ff0eab091d e253cc82c129a82d",
	"twosided-basic/small/sorted":        "1ed337413f51227a b130401bd1b3e85a",
	"twosided-iko/dup/sorted":            "52136be65d8888cd 2c6578839773cb4a",
	"twosided-iko/eqB/sorted":            "77cb0eb09c7eee56 08d300efcda24c1f",
	"twosided-iko/multi/sorted":          "b2cca374f8731d37 1928b8d6994d6a19",
	"twosided-iko/small/sorted":          "d7b338b748243a0d b130401bd1b3e85a",
	"twosided-multilevel/dup/sorted":     "e8af6694fb1c50d4 479422e3234f2f86",
	"twosided-multilevel/eqB/sorted":     "1f615594340533ac 08d300efcda24c1f",
	"twosided-multilevel/multi/sorted":   "d726ac1d7db8d953 3501338e1bf6b26d",
	"twosided-multilevel/small/sorted":   "1ef32e5783912e00 b130401bd1b3e85a",
	"twosided-segmented/dup/sorted":      "6395227e3f112c87 8190db5dd7a13521",
	"twosided-segmented/eqB/sorted":      "cd83d58fbca5b354 08d300efcda24c1f",
	"twosided-segmented/multi/sorted":    "036ee70f61cedf80 205b146a21800293",
	"twosided-segmented/small/sorted":    "c2d0a49409bb2671 b130401bd1b3e85a",
	"twosided-two-level/dup/sorted":      "5ebdf2b1bd4d4a83 2a0b124a1b89649d",
	"twosided-two-level/eqB/sorted":      "1f615594340533ac 08d300efcda24c1f",
	"twosided-two-level/multi/sorted":    "c531e78dba1499d2 cf958820c2022e8b",
	"twosided-two-level/small/sorted":    "1ef32e5783912e00 b130401bd1b3e85a",
	"window/dup/sorted":                  "53b04a3945d7ab6f cec67d3366be62fc",
	"window/eqB/sorted":                  "8d2bad2ea99238df 5e2fb18ba704a089",
	"window/multi/sorted":                "e007059fef87f476 d812575e2ace9164",
	"window/small/sorted":                "181ee15114842f3a 289f70d7acd11d74",
}
