// Class-hierarchy indexing example, the object-oriented-database motivation
// the paper takes from [KRV]: answering "instances of class C (including
// subclasses) with attribute >= v" in one index.
//
// Classes are numbered by preorder over the hierarchy, so the instances of
// C's subtree occupy the contiguous class-id window [pre(C), post(C)]. An
// instance becomes the point (classID, attribute) and the query becomes the
// 3-sided query {pre(C) <= x <= post(C), y >= v} — exactly Theorem 3.3.
//
//	go run ./examples/classindex
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathcache"
)

// class is a node of the hierarchy.
type class struct {
	name      string
	children  []*class
	pre, post int64 // preorder window covering the subtree
}

func number(c *class, next int64) int64 {
	c.pre = next
	next++
	for _, ch := range c.children {
		next = number(ch, next)
	}
	c.post = next - 1
	return next
}

func flatten(c *class, out map[string]*class) {
	out[c.name] = c
	for _, ch := range c.children {
		flatten(ch, out)
	}
}

func main() {
	// A small vehicle hierarchy.
	root := &class{name: "Vehicle", children: []*class{
		{name: "Land", children: []*class{
			{name: "Car", children: []*class{
				{name: "Sedan"}, {name: "SUV"},
			}},
			{name: "Truck"},
			{name: "Motorcycle"},
		}},
		{name: "Water", children: []*class{
			{name: "Sailboat"}, {name: "Ferry"},
		}},
		{name: "Air", children: []*class{
			{name: "Plane"}, {name: "Helicopter"},
		}},
	}}
	number(root, 0)
	classes := map[string]*class{}
	flatten(root, classes)

	// Leaf classes get instances; the indexed attribute is price.
	rng := rand.New(rand.NewSource(13))
	var leaves []*class
	for _, c := range classes {
		if len(c.children) == 0 {
			leaves = append(leaves, c)
		}
	}
	const instances = 120_000
	pts := make([]pathcache.Point, instances)
	for i := range pts {
		c := leaves[rng.Intn(len(leaves))]
		pts[i] = pathcache.Point{
			X:  c.pre,                      // class id
			Y:  5_000 + rng.Int63n(95_000), // price
			ID: uint64(i + 1),
		}
	}
	ix, err := pathcache.NewThreeSidedIndex(pts, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d instances of %d classes in %d pages\n\n",
		ix.Len(), len(classes), ix.Pages())

	queries := []struct {
		class string
		price int64
	}{
		{"Vehicle", 99_000},
		{"Land", 95_000},
		{"Car", 80_000},
		{"Sedan", 50_000},
		{"Water", 60_000},
	}
	fmt.Println("\"instances of class C with price >= v\" (3-sided queries):")
	for _, q := range queries {
		c := classes[q.class]
		ix.ResetStats()
		res, prof, err := ix.QueryThreeSided(c.pre, c.post, q.price)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s window [%d..%d]  price >= %-6d -> %6d instances, %3d page reads (%d wasteful)\n",
			q.class, c.pre, c.post, q.price, len(res), ix.Stats().Reads, prof.WastefulIOs)
	}

	// Sanity: the Car subtree equals Sedan + SUV at any threshold.
	car := classes["Car"]
	carAll, _, err := ix.QueryThreeSided(car.pre, car.post, 0)
	if err != nil {
		log.Fatal(err)
	}
	sedan, _, _ := ix.QueryThreeSided(classes["Sedan"].pre, classes["Sedan"].post, 0)
	suv, _, _ := ix.QueryThreeSided(classes["SUV"].pre, classes["SUV"].post, 0)
	fmt.Printf("\ncontainment check: |Car|=%d = |Sedan|+|SUV| = %d+%d\n",
		len(carAll), len(sedan), len(suv))
	if len(carAll) != len(sedan)+len(suv) {
		log.Fatal("hierarchy containment violated")
	}
}
