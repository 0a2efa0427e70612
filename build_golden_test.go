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
// (truncated sha256), recorded on the per-node-sort construction. The
// sharded- row was recorded before the write tier's manifest, the shard
// map and the engine metas moved onto one shared codec
// (internal/disk/codec.go); that move changed no byte. The lsm- rows were
// re-recorded when BuildDynamic began sealing its seed straight into the
// first level: the file no longer holds (or frees) the seed's WAL pages.
// The file column of every row was re-recorded when extending allocations
// stopped writing a superblock each: only the two superblock slots (the
// first 128 bytes) changed, and the writes column did not.
var buildGolden = map[string]string{
	"lsm-interval/multi/sorted":          "dd1f0a70e6aaced0 0a72124667821888",
	"lsm-twosided/multi/sorted":          "19e0637806168564 d7dd922825862dc4",
	"sharded-twosided-4/multi/sorted":    "8b7d80cbae3533bf 9926fc0b22c853f6",
	"interval-cached=false/dup/sorted":   "6367f0d8d156921c f96623832e8407a9",
	"interval-cached=false/eqB/sorted":   "64d6a6d70329cb36 a337a5a71cac52c1",
	"interval-cached=false/multi/sorted": "b9f72ccdcf0eb657 bf250a140483dc9b",
	"interval-cached=false/small/sorted": "ad015c1b2b6a4c9f 60d361ec2b278d22",
	"interval-cached=true/dup/sorted":    "35968efb4e154f4f f96623832e8407a9",
	"interval-cached=true/eqB/sorted":    "d1372eb07b315a06 9adabbe05cd4bce5",
	"interval-cached=true/multi/sorted":  "8eb770fc5250db82 54483c09844df5c7",
	"interval-cached=true/small/sorted":  "eca1cc01d8aa0db0 dc357b68be05702a",
	"segment-cached=false/dup/sorted":    "ff54bfc055751aa6 a0268a1907dd6c08",
	"segment-cached=false/eqB/sorted":    "196c941a44ab8902 145d94bc53583a48",
	"segment-cached=false/multi/sorted":  "b74af7dd19b61929 287b4af2f992b5d0",
	"segment-cached=false/small/sorted":  "2328f51a6d60ed5e ff8fda24768c6702",
	"segment-cached=true/dup/sorted":     "d8b86cf9b3539720 a0268a1907dd6c08",
	"segment-cached=true/eqB/sorted":     "0a7e8b5840c3fa6f 145d94bc53583a48",
	"segment-cached=true/multi/sorted":   "65b12a2b3d428414 52da236ef4e1e4d0",
	"segment-cached=true/small/sorted":   "f0116286a3a04986 ff8fda24768c6702",
	"stabbing/dup/sorted":                "118b5eb0bc5925d1 af8630133ea670fd",
	"stabbing/eqB/sorted":                "5fb10db020613266 7de9b6930e45bd95",
	"stabbing/multi/sorted":              "aaaa86738cf0eb59 970bc0e15b39f95c",
	"stabbing/small/sorted":              "397de8363d41a3e4 c8b87099033315a4",
	"threeside/dup/sorted":               "4833ad971b660563 80f8b04216a42992",
	"threeside/eqB/sorted":               "255b5f1526a7bb93 4ff43e77a730c2a5",
	"threeside/multi/sorted":             "2793648b71ba54f4 39b8dd100ba6b3b0",
	"threeside/small/sorted":             "fe4bc97b018db521 11cf23607a1add72",
	"twosided-basic/dup/sorted":          "26d9f9a38815c03a 143552183d0c323b",
	"twosided-basic/eqB/sorted":          "ddb74568e7efa39d 08d300efcda24c1f",
	"twosided-basic/multi/sorted":        "5aa58c8dcf06ac9c e253cc82c129a82d",
	"twosided-basic/small/sorted":        "6f82bfe536e3af37 b130401bd1b3e85a",
	"twosided-iko/dup/sorted":            "f1a5e563a757842b 2c6578839773cb4a",
	"twosided-iko/eqB/sorted":            "953d9c409703aa4f 08d300efcda24c1f",
	"twosided-iko/multi/sorted":          "2ff01b012fad33fe 1928b8d6994d6a19",
	"twosided-iko/small/sorted":          "14c5085de20d8f88 b130401bd1b3e85a",
	"twosided-multilevel/dup/sorted":     "da1f165b7acfdc71 479422e3234f2f86",
	"twosided-multilevel/eqB/sorted":     "e1a2d7837972217d 08d300efcda24c1f",
	"twosided-multilevel/multi/sorted":   "a747425d65088b11 3501338e1bf6b26d",
	"twosided-multilevel/small/sorted":   "7119e0422dd42440 b130401bd1b3e85a",
	"twosided-segmented/dup/sorted":      "c57b647b2600d78d 8190db5dd7a13521",
	"twosided-segmented/eqB/sorted":      "f1a23b3d1e82b4a9 08d300efcda24c1f",
	"twosided-segmented/multi/sorted":    "570c9d22ea8355a6 205b146a21800293",
	"twosided-segmented/small/sorted":    "df38bf9af1a58d28 b130401bd1b3e85a",
	"twosided-two-level/dup/sorted":      "36cba42973aa349d 2a0b124a1b89649d",
	"twosided-two-level/eqB/sorted":      "e1a2d7837972217d 08d300efcda24c1f",
	"twosided-two-level/multi/sorted":    "0fe5a4c9ef121173 cf958820c2022e8b",
	"twosided-two-level/small/sorted":    "7119e0422dd42440 b130401bd1b3e85a",
	"window/dup/sorted":                  "bd8000dcef31f21f cec67d3366be62fc",
	"window/eqB/sorted":                  "a092ab18fb969c92 5e2fb18ba704a089",
	"window/multi/sorted":                "2e05b893c773fa9c d812575e2ace9164",
	"window/small/sorted":                "588512c2e9171df3 289f70d7acd11d74",
}
