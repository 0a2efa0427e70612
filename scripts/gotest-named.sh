#!/bin/sh
# gotest-named.sh PKG PATTERN [go test flags...]
#
# Runs `go test PKG -run PATTERN [flags...]` after checking that every
# |-separated alternative of PATTERN names at least one test, fuzz target,
# benchmark or example in PKG. `go test -run X` that matches nothing only
# prints a warning and exits 0, so a test renamed or moved out of a named
# CI or Makefile step would otherwise drop out of it silently. PATTERN is
# split on every |, so alternatives must not nest inside a group. GO names
# the go command (default go).
set -eu
go=${GO:-go}
pkg=$1
pattern=$2
shift 2

IFS='|'
for alt in $pattern; do
	if ! "$go" test -list "$alt" "$pkg" | grep -q '^\(Test\|Fuzz\|Benchmark\|Example\)'; then
		echo "gotest-named: no test in $pkg matches -run '$alt'" >&2
		exit 1
	fi
done
unset IFS

exec "$go" test "$pkg" -run "$pattern" "$@"
