// Decomposition example: reproduces Figure 4 of the paper as ASCII art.
// It builds the priority-search-tree plane decomposition with B=4, draws
// the regions, runs a 2-sided query, and classifies every touched region
// as the corner, an ancestor, a right sibling, or a descendant — the four
// roles of the paper's charging argument.
//
//	go run ./examples/decomposition
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"pathcache"
)

// node mirrors the paper's in-memory PST construction with B points per
// node, for visualization; pathcache's indexes do the same on disk.
type node struct {
	pts         []pathcache.Point
	split       int64
	minY        int64
	left, right *node
}

func build(pts []pathcache.Point, b int) *node {
	if len(pts) == 0 {
		return nil
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Y != pts[j].Y {
			return pts[i].Y > pts[j].Y
		}
		return pts[i].X < pts[j].X
	})
	n := &node{}
	k := b
	if k > len(pts) {
		k = len(pts)
	}
	n.pts = append([]pathcache.Point(nil), pts[:k]...)
	n.minY = n.pts[k-1].Y
	rest := append([]pathcache.Point(nil), pts[k:]...)
	if len(rest) == 0 {
		return n
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].X < rest[j].X })
	mid := len(rest) / 2
	n.split = rest[mid].X
	n.left = build(rest[:mid], b)
	n.right = build(rest[mid:], b)
	return n
}

const (
	gridW, gridH = 72, 24
	domain       = 100
)

func main() {
	const b = 4
	rng := rand.New(rand.NewSource(17))
	pts := make([]pathcache.Point, 48)
	for i := range pts {
		pts[i] = pathcache.Point{X: rng.Int63n(domain), Y: rng.Int63n(domain), ID: uint64(i + 1)}
	}
	root := build(append([]pathcache.Point(nil), pts...), b)

	qa, qb := int64(35), int64(30)
	fmt.Printf("Figure 4 — PST decomposition with B=%d, query {x >= %d, y >= %d}\n", b, qa, qb)
	fmt.Println("legend: C corner, A ancestor, S right sibling, D descendant, . other point")
	fmt.Println()

	// Classify regions along the query.
	role := map[*node]byte{}
	var path []*node
	cur := root
	for cur != nil {
		path = append(path, cur)
		if cur.minY < qb {
			break
		}
		if qa <= cur.split {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	for _, n := range path {
		role[n] = 'A'
	}
	role[path[len(path)-1]] = 'C'
	var markDesc func(n *node)
	markDesc = func(n *node) {
		if n == nil {
			return
		}
		role[n] = 'D'
		if n.minY >= qb {
			markDesc(n.left)
			markDesc(n.right)
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if path[i+1] == path[i].left && path[i].right != nil {
			sib := path[i].right
			role[sib] = 'S'
			if sib.minY >= qb {
				markDesc(sib.left)
				markDesc(sib.right)
			}
		}
	}

	// Render the plane.
	grid := make([][]byte, gridH)
	for i := range grid {
		grid[i] = make([]byte, gridW)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	var paint func(n *node)
	paint = func(n *node) {
		if n == nil {
			return
		}
		paint(n.left)
		paint(n.right)
		mark, ok := role[n]
		if !ok {
			mark = '.'
		}
		for _, p := range n.pts {
			gx := int(p.X) * (gridW - 1) / domain
			gy := (gridH - 1) - int(p.Y)*(gridH-1)/domain
			grid[gy][gx] = mark
		}
	}
	paint(root)
	// Query boundary.
	qx := int(qa) * (gridW - 1) / domain
	qy := (gridH - 1) - int(qb)*(gridH-1)/domain
	for y := 0; y <= qy; y++ {
		if grid[y][qx] == ' ' {
			grid[y][qx] = '|'
		}
	}
	for x := qx; x < gridW; x++ {
		if grid[qy][x] == ' ' {
			grid[qy][x] = '-'
		}
	}
	grid[qy][qx] = '+'
	for _, row := range grid {
		fmt.Println(string(row))
	}

	counts := map[byte]int{}
	for _, r := range role {
		counts[r]++
	}
	fmt.Printf("\nregions touched: 1 corner, %d ancestors, %d right siblings, %d descendants\n",
		counts['A'], counts['S'], counts['D'])

	// Cross-check against the real external index.
	ix, err := pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, &pathcache.Options{PageSize: 128})
	if err != nil {
		log.Fatal(err)
	}
	res, prof, err := ix.Query(qa, qb)
	if err != nil {
		log.Fatal(err)
	}
	want := 0
	for _, p := range pts {
		if p.X >= qa && p.Y >= qb {
			want++
		}
	}
	fmt.Printf("external index agrees: %d points (expected %d), %d useful + %d wasteful list I/Os\n",
		len(res), want, prof.UsefulIOs, prof.WastefulIOs)
	if len(res) != want {
		log.Fatal("result mismatch")
	}
}
