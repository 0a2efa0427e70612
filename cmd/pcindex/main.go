// Command pcindex builds, inspects and queries persistent pathcache index
// files.
//
// Build an index from CSV (points: x,y,id — intervals: lo,hi,id):
//
//	pcindex build -type twosided  -scheme segmented -in points.csv   -out pts.pc
//	pcindex build -type threeside -in points.csv    -out pts3.pc
//	pcindex build -type stabbing  -in intervals.csv -out ivs.pc
//	pcindex build -type segment   -in intervals.csv -out seg.pc
//	pcindex build -type interval  -in intervals.csv -out itv.pc
//
// Build a dynamic (LSM write tier) index over any base kind — interval
// bases take interval CSV, point bases take point CSV:
//
//	pcindex build -type lsm -base twosided -memtable 8 -in points.csv    -out dyn.pc
//	pcindex build -type lsm -base stabbing -memtable 8 -in intervals.csv -out dynstab.pc
//
// Build a sharded store (-out becomes a directory holding one file per
// shard plus the shard-map manifest; query/info/stats/verify take the
// directory):
//
//	pcindex build -type twosided -shards 3 -in points.csv -out pts.shards
//
// Query it (reopens without rebuilding):
//
//	pcindex query -in pts.pc  -q "100 200"        # x >= 100, y >= 200
//	pcindex query -in pts3.pc -q "100 500 200"    # 100 <= x <= 500, y >= 200
//	pcindex query -in ivs.pc  -q "150"            # intervals containing 150
//
// Inspect:
//
//	pcindex info -in pts.pc
//
// Metrics (runs one deterministic probe query, then prints the per-op
// metric series the store recorded — read/write/hit histograms and the
// worst theorem-bound ratio; durations are intentionally not printed so
// the output stays golden-testable):
//
//	pcindex stats -in pts.pc
//
// With -serve the same snapshot is rendered in the text exposition format
// a running pcserve publishes on /metrics, so the golden transcript pins
// the server-side series names and exact counts without booting a listener:
//
//	pcindex stats -serve -in pts.pc
//
// Check integrity (every page and free-list stub against its checksum —
// the post-crash health check):
//
//	pcindex verify -in pts.pc
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pathcache"
	"pathcache/internal/engine"
	"pathcache/internal/server"
	"pathcache/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcindex:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pcindex build|query|info|stats|verify [flags] (see -h per subcommand)")
	fmt.Fprintln(os.Stderr, "")
	fmt.Fprintln(os.Stderr, "The CLI's output is pinned by a golden transcript; after an intentional")
	fmt.Fprintln(os.Stderr, "output change, regenerate it with `make golden` (equivalently:")
	fmt.Fprintln(os.Stderr, "`go test ./cmd/pcindex -run TestGoldenOutput -update`) and review the diff.")
	os.Exit(2)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	typ := fs.String("type", "twosided", "twosided|threeside|stabbing|segment|interval|window|lsm")
	scheme := fs.String("scheme", "segmented", "iko|basic|segmented (flat 2-sided schemes persist)")
	base := fs.String("base", "twosided", "lsm only: base kind the sealed levels are built with")
	memtable := fs.Int("memtable", 0, "lsm only: updates per memtable flush (0 = default)")
	in := fs.String("in", "", "input CSV (points: x,y,id — intervals: lo,hi,id)")
	out := fs.String("out", "", "output index file (a directory with -shards)")
	page := fs.Int("page", pathcache.DefaultPageSize, "page size in bytes")
	shards := fs.Int("shards", 1, "shard count; >= 2 builds a sharded store under -out")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("build requires -in and -out")
	}
	opts := &pathcache.Options{PageSize: *page, Path: *out}
	var sc pathcache.Scheme
	switch *scheme {
	case "iko":
		sc = pathcache.SchemeIKO
	case "basic":
		sc = pathcache.SchemeBasic
	case "segmented":
		sc = pathcache.SchemeSegmented
	default:
		return fmt.Errorf("scheme %q does not persist (use iko, basic or segmented)", *scheme)
	}

	if *shards >= 2 {
		return buildSharded(*typ, *base, *in, *out, pathcache.ShardPlan{Shards: *shards, Scheme: sc, Base: *base},
			&pathcache.Options{PageSize: *page, MemtableEntries: *memtable})
	}

	switch *typ {
	case "lsm":
		// The dynamic write tier: records are seeded through the WAL and
		// sealed into one static level of the chosen base kind. Interval
		// bases take interval CSV and store the diagonal-corner encoding.
		var pts []pathcache.Point
		switch *base {
		case "stabbing", "segment", "interval":
			ivs, err := readIntervals(*in)
			if err != nil {
				return err
			}
			pts = make([]pathcache.Point, len(ivs))
			for i, iv := range ivs {
				pts[i] = pathcache.IntervalToDynamicPoint(iv)
			}
		default:
			var err error
			pts, err = readPoints(*in)
			if err != nil {
				return err
			}
		}
		opts.MemtableEntries = *memtable
		ix, err := pathcache.BuildDynamic(*base, pts, opts)
		if err != nil {
			return err
		}
		fmt.Printf("built %s: %d records, %d pages (lsm over %s, %d levels)\n",
			*out, ix.Len(), ix.Pages(), ix.Base(), len(ix.Levels()))
		return ix.Close()
	case "window":
		pts, err := readPoints(*in)
		if err != nil {
			return err
		}
		ix, err := pathcache.NewWindowIndex(pts, opts)
		if err != nil {
			return err
		}
		fmt.Printf("built %s: %d points, %d pages (4-sided window)\n", *out, ix.Len(), ix.Pages())
		return ix.Close()
	case "twosided", "threeside":
		pts, err := readPoints(*in)
		if err != nil {
			return err
		}
		if *typ == "twosided" {
			ix, err := pathcache.NewTwoSidedIndex(pts, sc, opts)
			if err != nil {
				return err
			}
			fmt.Printf("built %s: %d points, %d pages (%s scheme)\n", *out, ix.Len(), ix.Pages(), sc)
			return ix.Close()
		}
		ix, err := pathcache.NewThreeSidedIndex(pts, opts)
		if err != nil {
			return err
		}
		fmt.Printf("built %s: %d points, %d pages (3-sided)\n", *out, ix.Len(), ix.Pages())
		return ix.Close()
	case "stabbing", "segment", "interval":
		ivs, err := readIntervals(*in)
		if err != nil {
			return err
		}
		switch *typ {
		case "stabbing":
			ix, err := pathcache.NewStabbingIndex(ivs, sc, opts)
			if err != nil {
				return err
			}
			fmt.Printf("built %s: %d intervals, %d pages (stabbing/%s)\n", *out, ix.Len(), ix.Pages(), sc)
			return ix.Close()
		case "segment":
			ix, err := pathcache.NewSegmentIndex(ivs, true, opts)
			if err != nil {
				return err
			}
			fmt.Printf("built %s: %d intervals, %d pages (segment tree)\n", *out, ix.Len(), ix.Pages())
			return ix.Close()
		default:
			ix, err := pathcache.NewIntervalIndex(ivs, true, opts)
			if err != nil {
				return err
			}
			fmt.Printf("built %s: %d intervals, %d pages (interval tree)\n", *out, ix.Len(), ix.Pages())
			return ix.Close()
		}
	default:
		return fmt.Errorf("unknown type %q", *typ)
	}
}

// buildSharded builds a range-partitioned store under dir: one index file
// per shard plus the shard-map manifest.
func buildSharded(typ, base, in, dir string, plan pathcache.ShardPlan, opts *pathcache.Options) error {
	var s *pathcache.Sharded
	var err error
	switch typ {
	case "stabbing", "segment", "interval":
		var ivs []pathcache.Interval
		if ivs, err = readIntervals(in); err != nil {
			return err
		}
		s, err = pathcache.BuildShardedIntervals(dir, typ, ivs, plan, opts)
	case "lsm":
		var pts []pathcache.Point
		switch base {
		case "stabbing", "segment", "interval":
			ivs, err := readIntervals(in)
			if err != nil {
				return err
			}
			pts = make([]pathcache.Point, len(ivs))
			for i, iv := range ivs {
				pts[i] = pathcache.IntervalToDynamicPoint(iv)
			}
		default:
			if pts, err = readPoints(in); err != nil {
				return err
			}
		}
		s, err = pathcache.BuildShardedPoints(dir, typ, pts, plan, opts)
	default:
		var pts []pathcache.Point
		if pts, err = readPoints(in); err != nil {
			return err
		}
		s, err = pathcache.BuildShardedPoints(dir, typ, pts, plan, opts)
	}
	if err != nil {
		return err
	}
	what := s.ContentKind()
	if b := s.Base(); b != "" {
		what += " over " + b
	}
	fmt.Printf("built %s: %d records, %d pages (%d shards of %s)\n",
		dir, s.Len(), s.Pages(), s.NumShards(), what)
	return s.Close()
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "index file")
	q := fs.String("q", "", "query: 'a b' (2-sided), 'a1 a2 b' (3-sided), 'x1 x2 y1 y2' (window), 'q' (stabbing)")
	limit := fs.Int("limit", 20, "max rows to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *q == "" {
		return fmt.Errorf("query requires -in and -q")
	}
	nums, err := parseInts(*q)
	if err != nil {
		return err
	}
	ix, err := pathcache.Open(*in)
	if err != nil {
		return err
	}
	defer ix.Close()

	printPts := func(pts []pathcache.Point, reads int64) {
		fmt.Printf("%d results in %d page reads\n", len(pts), reads)
		for i, p := range pts {
			if *limit > 0 && i >= *limit {
				fmt.Printf("... (%d more)\n", len(pts)-i)
				break
			}
			fmt.Printf("x=%d y=%d id=%d\n", p.X, p.Y, p.ID)
		}
	}

	// The query takes the shape the index answers. The printed read count
	// is the profile's op-scoped count, summed over the consulted shards of
	// a sharded store, rather than a diff of the store-global stats.
	switch ix.Shape() {
	case pathcache.ShapeTwoSided:
		if len(nums) != 2 {
			return fmt.Errorf("2-sided query needs 'a b'")
		}
		res, prof, err := ix.(pathcache.TwoSidedQuerier).Query(nums[0], nums[1])
		if err != nil {
			return err
		}
		printPts(res, prof.Reads)
	case pathcache.ShapeThreeSided:
		if len(nums) != 3 {
			return fmt.Errorf("3-sided query needs 'a1 a2 b'")
		}
		res, prof, err := ix.(pathcache.ThreeSidedQuerier).QueryThreeSided(nums[0], nums[1], nums[2])
		if err != nil {
			return err
		}
		printPts(res, prof.Reads)
	case pathcache.ShapeWindow:
		if len(nums) != 4 {
			return fmt.Errorf("window query needs 'x1 x2 y1 y2'")
		}
		res, prof, err := ix.(pathcache.WindowQuerier).WindowQuery(nums[0], nums[1], nums[2], nums[3])
		if err != nil {
			return err
		}
		printPts(res, prof.Reads)
	case pathcache.ShapeStab:
		if len(nums) != 1 {
			return fmt.Errorf("stabbing query needs 'q'")
		}
		res, prof, err := ix.(pathcache.Stabber).Stab(nums[0])
		if err != nil {
			return err
		}
		fmt.Printf("%d results in %d page reads\n", len(res), prof.Reads)
		for i, iv := range res {
			if *limit > 0 && i >= *limit {
				fmt.Printf("... (%d more)\n", len(res)-i)
				break
			}
			fmt.Printf("lo=%d hi=%d id=%d\n", iv.Lo, iv.Hi, iv.ID)
		}
	}
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info requires -in")
	}
	ix, err := pathcache.Open(*in)
	if err != nil {
		return err
	}
	defer ix.Close()
	// The registry kind name is the stable identifier; the 2-sided kind
	// additionally reports which flat scheme the file persists, the write
	// tier its manifest (base kind, memtable and tombstone backlog, one
	// line per sealed level), and a sharded store its shard rows.
	var tail []string
	switch v := ix.(type) {
	case *pathcache.TwoSidedIndex:
		fmt.Printf("kind: %s (%s scheme)\n", ix.Kind(), v.Scheme())
	case *pathcache.LSMIndex:
		fmt.Printf("kind: %s (over %s)\n", ix.Kind(), v.Base())
		tail = append(tail, fmt.Sprintf("memtable: %d entries", v.MemtableLen()), fmt.Sprintf("tombstones: %d", v.TombCount()))
		for _, lv := range v.Levels() {
			tail = append(tail, fmt.Sprintf("level %d: %d records (%d tree + %d data + %d bloom pages)",
				lv.Slot, lv.Records, lv.TreePages, lv.DataPages, lv.BloomPages))
		}
	case *pathcache.Sharded:
		what := v.ContentKind()
		if b := v.Base(); b != "" {
			what += " over " + b
		}
		fmt.Printf("kind: %s (%d shards of %s, epoch %d)\n", ix.Kind(), v.NumShards(), what, v.Epoch())
		for _, info := range v.Shards() {
			tail = append(tail, fmt.Sprintf("shard %d: %s records=%d pages=%d range=%s",
				info.Shard, info.File, info.Len, info.Pages, keyRange(info.Lo, info.Hi)))
		}
	default:
		fmt.Printf("kind: %s\n", ix.Kind())
	}
	fmt.Printf("records: %d\npages: %d\n", ix.Len(), ix.Pages())
	for _, line := range tail {
		fmt.Println(line)
	}
	return nil
}

// keyRange renders a shard's half-open routing-key range, with the
// unbounded ends spelled out.
func keyRange(lo, hi int64) string {
	l, h := "-inf", "+inf"
	if lo != math.MinInt64 {
		l = strconv.FormatInt(lo, 10)
	}
	if hi != math.MaxInt64 {
		h = strconv.FormatInt(hi, 10)
	}
	return fmt.Sprintf("[%s,%s)", l, h)
}

// runStats reopens an index, runs one deterministic full-range probe for
// its kind, and pretty-prints the resulting Metrics snapshot. Only
// deterministic fields are printed — series identity, op/result counts,
// the I/O histograms, and the max bound ratio — never durations, so the
// output is stable under the golden transcript.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "index file")
	serve := fs.Bool("serve", false, "render the snapshot in pcserve's /metrics exposition format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats requires -in")
	}
	ix, err := pathcache.Open(*in)
	if err != nil {
		return err
	}
	defer ix.Close()

	results, err := probe(ix)
	if err != nil {
		return err
	}
	m := ix.Metrics()
	if *serve {
		server.WriteIndexMetrics(os.Stdout, m)
		return nil
	}
	fmt.Printf("kind: %s\nprobe: %d results\n", ix.Kind(), results)
	fmt.Printf("inflight: %d\nseries: %d\n", m.Inflight, len(m.Ops))
	for _, s := range m.Ops {
		// Series from a sharded store carry the recording shard; single-store
		// series print exactly as before.
		tag := ""
		if s.Shard != pathcache.NoShard {
			tag = fmt.Sprintf(" shard=%d", s.Shard)
		}
		fmt.Printf("op %s/%s worker=%s%s: ops=%d results=%d\n",
			s.Kind, s.Name, workerLabel(s.Worker), tag, s.Ops, s.Results)
		fmt.Printf("  reads:  %s\n", histLine(s.Reads))
		fmt.Printf("  writes: %s\n", histLine(s.Writes))
		fmt.Printf("  hits:   %s\n", histLine(s.CacheHits))
		fmt.Printf("  bound:  max-ratio=%.2f\n", s.MaxBoundRatio)
	}
	return nil
}

// probe runs the stats subcommand's deterministic query for the index's
// shape: a full-range query for the point shapes, a stab at 0 for
// stabbing. The exact query does not matter — it only has to be the same
// on every machine so the recorded I/O is too.
func probe(ix pathcache.Index) (int, error) {
	const lo, hi = math.MinInt64, math.MaxInt64
	switch ix.Shape() {
	case pathcache.ShapeTwoSided:
		pts, _, err := ix.(pathcache.TwoSidedQuerier).Query(lo, lo)
		return len(pts), err
	case pathcache.ShapeThreeSided:
		pts, _, err := ix.(pathcache.ThreeSidedQuerier).QueryThreeSided(lo, hi, lo)
		return len(pts), err
	case pathcache.ShapeWindow:
		pts, _, err := ix.(pathcache.WindowQuerier).WindowQuery(lo, hi, lo, hi)
		return len(pts), err
	case pathcache.ShapeStab:
		ivs, _, err := ix.(pathcache.Stabber).Stab(0)
		return len(ivs), err
	}
	return 0, fmt.Errorf("index kind %q answers no query shape", ix.Kind())
}

// workerLabel names a series' worker tag: batch worker index, or "serial"
// for ops recorded outside any batch.
func workerLabel(w int) string {
	if w == pathcache.SerialWorker {
		return "serial"
	}
	return strconv.Itoa(w)
}

// histLine renders one metric histogram on a single line: totals followed
// by every non-empty log₂ bucket as "[lo,hi]:count".
func histLine(h pathcache.Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d sum=%d min=%d max=%d", h.Count, h.Sum, h.Min, h.Max)
	for _, bk := range h.Buckets {
		if bk.Hi == math.MaxInt64 {
			fmt.Fprintf(&b, " [%d,+inf):%d", bk.Lo, bk.Count)
			continue
		}
		fmt.Fprintf(&b, " [%d,%d]:%d", bk.Lo, bk.Hi, bk.Count)
	}
	return b.String()
}

// runVerify scans an index file against its checksums and prints what it
// holds. Exit status distinguishes the three recovery outcomes: 0 for an
// intact committed index, and an error (status 1) naming either a build
// that never committed or the detected corruption.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify requires -in")
	}
	if fi, err := os.Stat(*in); err == nil && fi.IsDir() {
		return verifySharded(*in)
	}
	rep, err := pathcache.VerifyFile(*in)
	if err != nil {
		return err
	}
	fmt.Printf("kind: %s\n", rep.Kind)
	fmt.Printf("epoch: %d\n", rep.Epoch)
	fmt.Printf("page: %d bytes (%d usable)\n", rep.PageSize, rep.Usable)
	fmt.Printf("slots: %d (%d live, %d free)\n", rep.Slots, rep.Live, rep.Free)
	fmt.Println("checksums: ok")
	return nil
}

// verifySharded checks a sharded store directory: the manifest's checksums
// and committed map first, then every shard file the map names, one row
// per shard. The map is read directly (not via OpenSharded) so a store
// with one corrupt shard still reports the other shards' health.
func verifySharded(dir string) error {
	manifest := filepath.Join(dir, shard.MapFileName)
	rep, err := pathcache.VerifyFile(manifest)
	if err != nil {
		return err
	}
	be, err := engine.Open(manifest)
	if err != nil {
		return err
	}
	m, err := shard.Load(be)
	if cerr := be.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("kind: %s (%d shards of %s, epoch %d)\n", rep.Kind, m.NumShards(), engine.KindName(m.Kind), m.Epoch)
	fmt.Println("manifest checksums: ok")
	for i, f := range m.Files {
		srep, err := pathcache.VerifyFile(filepath.Join(dir, f))
		if err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, f, err)
		}
		fmt.Printf("shard %d: %s kind=%s slots=%d (%d live, %d free) checksums: ok\n",
			i, f, srep.Kind, srep.Slots, srep.Live, srep.Free)
	}
	return nil
}

func parseInts(s string) ([]int64, error) {
	fields := strings.Fields(s)
	out := make([]int64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// readPoints parses x,y,id CSV lines (id optional; defaults to line number).
func readPoints(path string) ([]pathcache.Point, error) {
	rows, err := readCSV(path)
	if err != nil {
		return nil, err
	}
	pts := make([]pathcache.Point, len(rows))
	for i, r := range rows {
		if len(r) < 2 {
			return nil, fmt.Errorf("%s line %d: need x,y[,id]", path, i+1)
		}
		pts[i] = pathcache.Point{X: r[0], Y: r[1], ID: uint64(i + 1)}
		if len(r) >= 3 {
			pts[i].ID = uint64(r[2])
		}
	}
	return pts, nil
}

// readIntervals parses lo,hi,id CSV lines (id optional).
func readIntervals(path string) ([]pathcache.Interval, error) {
	rows, err := readCSV(path)
	if err != nil {
		return nil, err
	}
	ivs := make([]pathcache.Interval, len(rows))
	for i, r := range rows {
		if len(r) < 2 {
			return nil, fmt.Errorf("%s line %d: need lo,hi[,id]", path, i+1)
		}
		ivs[i] = pathcache.Interval{Lo: r[0], Hi: r[1], ID: uint64(i + 1)}
		if len(r) >= 3 {
			ivs[i].ID = uint64(r[2])
		}
	}
	return ivs, nil
}

func readCSV(path string) ([][]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		row := make([]int64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s line %d: bad number %q", path, line, p)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
