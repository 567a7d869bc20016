#!/bin/sh
# Reachability gate: every function and method declared in non-test files
# of the root package coldtall and of every package under internal/ must be
# linked into at least one binary — the cmd/*
# mains, the examples/* mains, or the coldbench harness. Each binary is
# built with inlining off (-gcflags=all=-l) so every called function keeps
# its own text symbol; `go tool nm` lists those symbols, and
# scripts/declist lists the declarations (both named with generic
# instantiation brackets stripped). A declaration with no symbol is code
# only tests (or nothing) reach: move it into a _test.go file or delete
# it. The keep-list below is the only exception, one reason per entry.
# Run from the repository root.
set -eu

# name<TAB>reason — declarations allowed to stay unlinked.
keep='coldtall/internal/stack.Planar	shared test fixture: the 2D baseline stack in array and root-package tests
coldtall/internal/trace.Collect	shared test helper: drains a generator in trace, sim and workload tests
coldtall/internal/trace.WriteText	shared test helper: writes the text trace format in trace and llcsim tests'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

n=0
for pkg in ./cmd/* ./examples/*; do
	n=$((n + 1))
	go build -gcflags=all=-l -o "$tmp/bin$n" "$pkg"
done
(cd coldbench && go build -gcflags=all=-l -o "$tmp/coldbench" .)

for bin in "$tmp"/bin* "$tmp/coldbench"; do
	go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
	grep -E '^coldtall(/internal/|\.)' |
	sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u >"$tmp/linked"

go run ./scripts/declist -module coldtall ./internal/... . | sort -u >"$tmp/declared"
printf '%s\n' "$keep" | cut -f1 | sort -u >"$tmp/keep"

comm -23 "$tmp/declared" "$tmp/linked" | comm -23 - "$tmp/keep" >"$tmp/dead"
if [ -s "$tmp/dead" ]; then
	echo "deadcheck: $(wc -l <"$tmp/dead") functions are linked into no binary:"
	cat "$tmp/dead"
	exit 1
fi
# A keep-list entry that is now linked (or gone) is stale.
comm -23 "$tmp/keep" "$tmp/declared" >"$tmp/stale"
comm -12 "$tmp/keep" "$tmp/linked" >>"$tmp/stale"
if [ -s "$tmp/stale" ]; then
	echo "deadcheck: stale keep-list entries (linked or no longer declared):"
	cat "$tmp/stale"
	exit 1
fi
echo "deadcheck OK: every root and internal function is linked into a binary ($(wc -l <"$tmp/declared") declared, $n+1 binaries)"
