// Package fixedwidth protects the B = ⌊pageSize/recordSize⌋ arithmetic that
// every I/O bound in the paper is computed from. Records and node payloads
// must be fixed-width and their sizes must be named compile-time constants;
// anything that lets the encoded size drift away from the constant the
// capacity derivation uses silently invalidates measured bounds.
//
// Reported:
//
//   - reflect-based encoding/binary.Read and binary.Write: their encoded
//     size is whatever reflection walks at run time, they allocate, and they
//     are orders of magnitude slower than the explicit PutUintXX calls on
//     the record hot path;
//   - the varint family (PutVarint, AppendUvarint, ReadVarint, ...):
//     variable-width by construction;
//   - reflection codecs (encoding/gob, encoding/json) in record-layout code;
//   - magic integer literals passed as the record size to the disk chain
//     helpers (ScanChain, ChainCap, NewChainWriter, WriteChain, ChainPages):
//     a literal cannot be cross-checked against the encoder, so the one
//     constant the B-derivation uses must be named (record.PointSize,
//     opSize, dirRecSize, ...). The metadata codec's blob helpers
//     (WriteBlob, ReadBlob, BlobPages, WriteCommitted, ReadCommitted) take
//     no record size: they chunk at the named disk.BlobRec.
package fixedwidth

import (
	"go/ast"
	"go/token"

	"pathcache/internal/analysis"
)

// Analyzer is the fixedwidth check.
var Analyzer = &analysis.Analyzer{
	Name: "fixedwidth",
	Doc:  "record encodings must stay fixed-width with named size constants so page-capacity arithmetic holds",
	Run:  run,
}

// varintFuncs are encoding/binary's variable-width encoders and decoders.
var varintFuncs = map[string]bool{
	"PutVarint": true, "PutUvarint": true,
	"AppendVarint": true, "AppendUvarint": true,
	"Varint": true, "Uvarint": true,
	"ReadVarint": true, "ReadUvarint": true,
}

// chainRecSizeArg maps each disk chain helper to the index of its record
// size parameter.
var chainRecSizeArg = map[string]int{
	"ScanChain": 1, "ChainCap": 1, "ChainPages": 1,
	"NewChainWriter": 1, "WriteChain": 1,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeOf(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			switch {
			case analysis.PkgIs(fn.Pkg(), "encoding/binary"):
				switch {
				case fn.Name() == "Read" || fn.Name() == "Write":
					pass.Reportf(call.Pos(),
						"reflect-based binary.%s: encoded size is decided by reflection at run time and the call allocates on the record hot path; use explicit fixed-width PutUintXX/UintXX against the named size constant", fn.Name())
				case varintFuncs[fn.Name()]:
					pass.Reportf(call.Pos(),
						"binary.%s is a variable-width encoding: record size would depend on the value, breaking B = pageSize/recordSize arithmetic; use fixed-width PutUintXX", fn.Name())
				}
			case analysis.PkgIs(fn.Pkg(), "encoding/gob") || analysis.PkgIs(fn.Pkg(), "encoding/json"):
				pass.Reportf(call.Pos(),
					"reflection codec %s.%s in record-layout code: encoded size is not a compile-time constant; records must be fixed-width", fn.Pkg().Name(), fn.Name())
			case analysis.PkgIs(fn.Pkg(), "internal/disk"):
				idx, ok := chainRecSizeArg[fn.Name()]
				if !ok || analysis.RecvNamed(fn) != nil || idx >= len(call.Args) {
					return true
				}
				if lit := intLiteral(call.Args[idx]); lit != nil {
					pass.Reportf(lit.Pos(),
						"magic record size %s passed to disk.%s: if the encoder changes width this call silently desynchronizes from it; name the constant next to the encoder (like record.PointSize) and use it here", lit.Value, fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// intLiteral unwraps parens and returns e's integer literal, if that is what
// it is. Named constants arrive as identifiers and pass.
func intLiteral(e ast.Expr) *ast.BasicLit {
	if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok && lit.Kind == token.INT {
		return lit
	}
	return nil
}
