package main

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pathcache/internal/analysis"
	"pathcache/internal/analysis/load"
)

// runAllowlist enumerates every //pcvet:allow directive in the matched
// packages: one "file:line: analyzer -- reason" line per suppressed
// analyzer, sorted, on stdout. The report is the flip side of a clean vet
// run — every place the code was argued past a checker, with the argument.
// A directive missing its justification, or malformed — a lockheldio allow
// that does not name the lock set it excuses — is reported on stderr and
// fails the run with exit 2, so an unexplained or over-broad suppression
// cannot ride in quietly.
func runAllowlist(args []string) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, modulePath := moduleRoot()
	targets, err := load.Targets(root, modulePath, args)
	if err != nil {
		fatalf("%v", err)
	}
	if len(targets) == 0 {
		fatalf("no packages match %v", args)
	}

	type entry struct {
		file   string
		line   int
		name   string
		reason string
	}
	var entries []entry
	bad := 0
	fset := token.NewFileSet()
	for _, tgt := range targets {
		dirents, err := os.ReadDir(tgt.Dir)
		if err != nil {
			fatalf("%v", err)
		}
		for _, de := range dirents {
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
				continue
			}
			name := filepath.Join(tgt.Dir, de.Name())
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				fatalf("%v", err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, analysis.DirectivePrefix) {
						continue
					}
					pos := fset.Position(c.Pos())
					rel, rerr := filepath.Rel(root, pos.Filename)
					if rerr != nil {
						rel = pos.Filename
					}
					rel = filepath.ToSlash(rel)
					allows, reason, err := analysis.ParseDirective(c.Text, all)
					switch {
					case errors.Is(err, analysis.ErrNoReason):
						fmt.Fprintf(os.Stderr, "%s:%d: suppression without justification: write %s <analyzer> -- <reason>\n",
							rel, pos.Line, analysis.DirectivePrefix)
						bad++
						continue
					case err != nil:
						fmt.Fprintf(os.Stderr, "%s:%d: malformed suppression: %v\n", rel, pos.Line, err)
						bad++
						continue
					}
					for _, a := range allows {
						entries = append(entries, entry{rel, pos.Line, a.String(), reason})
					}
				}
			}
		}
	}

	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.name < b.name
	})
	for _, e := range entries {
		fmt.Printf("%s:%d: %s -- %s\n", e.file, e.line, e.name, e.reason)
	}
	if bad > 0 {
		os.Exit(2)
	}
}
