#!/usr/bin/env bash
# Non-test source lines of the program: every Go and assembly file outside
# bench/ (the frozen benchmark module), minus *_test.go. Prints the total,
# then one row per package directory, largest first.
#
#   scripts/loc.sh
#
# Files are taken from git's view of the working tree (tracked plus
# untracked-but-not-ignored), so build output and .bench_build/ never
# count, while a new file counts before it is staged.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z --cached --others --exclude-standard -- '*.go' '*.s' ':!:bench/' ':!:*_test.go' |
	xargs -0 -r wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		if (dir == $2) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		printf "%7d  total\n", total
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -rn"
	}'
