package bench

import (
	"fmt"
	"sort"
	"strings"

	"pathcache/internal/btree"
	"pathcache/internal/disk"
	"pathcache/internal/pstcore"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
	"pathcache/internal/workload"
)

// NewBTreeOnX indexes the points' x-coordinates in a B+-tree (value = ID).
func NewBTreeOnX(s *disk.Store, pts []record.Point) (*btree.Tree, error) {
	bt, err := btree.New(s)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if err := bt.Insert(p.X, p.ID); err != nil {
			return nil, err
		}
	}
	return bt, nil
}

// RunF2 reproduces Figure 2: the skeletal B-tree maps height-log B subtrees
// to pages, so a root-to-leaf descent reads O(log_B n) pages while the
// binary path has O(log n) nodes.
func RunF2(cfg Config) (*Table, error) {
	tab := newTable("n\tbinary height\tsubtree/page\tavg descent reads\tpredict ceil(h/subH)",
		"F2: skeletal B-tree descent — pages read vs binary path length (Figure 2)")
	for _, n := range cfg.pointNs() {
		s := disk.MustStore(cfg.pageSize())
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i) * 3
		}
		root := buildBalanced(keys, nil)
		tr, err := skeletal.Build(s, root, 8)
		if err != nil {
			return nil, err
		}
		probes := workload.StabQueries(cfg.queries(), int64(n)*3, cfg.seed())
		var reads int64
		for _, k := range probes {
			s.ResetStats()
			_, err := tr.Descend(func(nd skeletal.Node) skeletal.Dir {
				if nd.Key == k {
					return skeletal.Stop
				}
				if k < nd.Key {
					return skeletal.Left
				}
				return skeletal.Right
			})
			if err != nil {
				return nil, err
			}
			reads += s.Stats().Reads
		}
		tab.addf("%d\t%d\t%d\t%.1f\t%d",
			n, tr.Height(), tr.SubHeight(), float64(reads)/float64(len(probes)),
			tr.Height()/tr.SubHeight()+1)
	}
	return tab, nil
}

func buildBalanced(keys []int64, payload []byte) *skeletal.BuildNode {
	if len(keys) == 0 {
		return nil
	}
	mid := len(keys) / 2
	return &skeletal.BuildNode{
		Key:     keys[mid],
		Payload: make([]byte, 8),
		Left:    buildBalanced(keys[:mid], payload),
		Right:   buildBalanced(keys[mid+1:], payload),
	}
}

// RunF4 reproduces Figure 4: the hierarchical plane decomposition of the
// external PST with B=4 and the classification of the blocks a 2-sided
// query touches — corner, ancestors, right siblings, and descendants that
// pay for themselves.
func RunF4(cfg Config) (*Table, error) {
	const b = 4
	n := 64
	pts := workload.UniformPoints(n, 100, cfg.seed())
	root := pstcore.Build(pstcore.SortedAsc(pts), b)

	tab := newTable("query (a,b)\tt\tcorner depth\tancestors\tsiblings\tdescendants inside\tdescendants cut",
		"F4: block classification for 2-sided queries on the B=4 decomposition (Figure 4)")
	for _, q := range []struct{ a, b int64 }{{10, 10}, {30, 40}, {50, 20}, {70, 70}, {90, 5}} {
		var anc, sib, descIn, descCut, t int
		cornerDepth := -1

		// Corner path.
		node := root
		depth := 0
		var path []*pstcore.MemNode
		for node != nil {
			path = append(path, node)
			for _, p := range node.Pts {
				if p.X >= q.a && p.Y >= q.b {
					t++
				}
			}
			if node.MinY < q.b {
				break
			}
			if q.a <= node.Split {
				node = node.Left
			} else {
				node = node.Right
			}
			depth++
		}
		cornerDepth = len(path) - 1
		anc = cornerDepth

		var explore func(m *pstcore.MemNode)
		explore = func(m *pstcore.MemNode) {
			if m == nil {
				return
			}
			inside := m.MinY >= q.b
			if inside {
				descIn++
			} else {
				descCut++
			}
			for _, p := range m.Pts {
				if p.X >= q.a && p.Y >= q.b {
					t++
				}
			}
			if inside {
				explore(m.Left)
				explore(m.Right)
			}
		}
		for i := 0; i+1 < len(path); i++ {
			if path[i+1] == path[i].Left && path[i].Right != nil {
				sib++
				// Sibling block itself, then its subtree.
				for _, p := range path[i].Right.Pts {
					if p.X >= q.a && p.Y >= q.b {
						t++
					}
				}
				if path[i].Right.MinY >= q.b {
					explore(path[i].Right.Left)
					explore(path[i].Right.Right)
				}
			}
		}
		tab.addf("(%d,%d)\t%d\t%d\t%d\t%d\t%d\t%d",
			q.a, q.b, t, cornerDepth, anc, sib, descIn, descCut)
	}
	tab.Notes = decomposition([]string{fmt.Sprintf("Decomposition (region x-ranges and y-cutoffs, B=%d, n=%d):", b, n)}, root, 0)
	return tab, nil
}

// decomposition appends the region tree as indented x-split / y-range
// lines, the textual form of Figure 4's drawing.
func decomposition(lines []string, m *pstcore.MemNode, depth int) []string {
	if m == nil || depth > 3 {
		return lines
	}
	ys := make([]int64, 0, len(m.Pts))
	for _, p := range m.Pts {
		ys = append(ys, p.Y)
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	lines = append(lines, fmt.Sprintf("%sregion depth=%d x-split=%d points y in [%d..%d]",
		strings.Repeat("  ", depth), depth, m.Split, ys[0], ys[len(ys)-1]))
	lines = decomposition(lines, m.Left, depth+1)
	return decomposition(lines, m.Right, depth+1)
}
