#!/usr/bin/env bash
# Mutant catalogue: each scripts/mutants/<name>.patch breaks one contract
# the repo promises, and some test must notice. For every mutant this
# copies the tracked tree (working-tree contents, plus untracked files
# git does not ignore) into a throw-away directory, applies the patch
# with git apply, builds the packages its header names (a mutant that
# does not build is an error, not a kill), runs their tests with the
# header's -run regex at -count=1, and requires a failure. It prints a
# kill table, mutant -> the tests that failed, and exits non-zero if any
# mutant survives or errs.
#
#   scripts/mutants.sh          # run every mutant
#   scripts/mutants.sh -check   # only git apply --check every patch
#
# A patch's header, the lines before its first "diff --git", holds
#   Packages: ./internal/algorithms/ ./internal/conform/
#   Run: ^TestRepair
# and any other line is a comment describing the mutant. Make one with
# git diff on a scratch copy and put the header above it.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
cat=$PWD/scripts/mutants

if [ "${1:-}" = -check ]; then
	n=0
	for p in "$cat"/*.patch; do
		git apply --check "$p" || { echo "mutants: $(basename "$p" .patch) does not apply" >&2; exit 1; }
		n=$((n + 1))
	done
	echo "mutants: all $n patches apply"
	exit 0
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# header <patch> <key>: the value of the header line "key: value".
header() {
	sed -n '/^diff --git /q; s/^'"$2"': *//p' "$1"
}

bad=0
rows=()
for p in "$cat"/*.patch; do
	name=$(basename "$p" .patch)
	pkgs=$(header "$p" Packages)
	run=$(header "$p" Run)
	if [ -z "$pkgs" ] || [ -z "$run" ]; then
		rows+=("$name|ERROR: header lacks Packages: or Run:")
		bad=1
		continue
	fi
	dir=$tmp/$name
	mkdir "$dir"
	git ls-files -z --cached --others --exclude-standard |
		while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
		tar --null -T - -cf - | tar -xf - -C "$dir"
	log=$tmp/$name.log
	# shellcheck disable=SC2086 # Packages is a list
	if ! (cd "$dir" && git apply "$p") >"$log" 2>&1; then
		rows+=("$name|ERROR: does not apply")
		bad=1
	elif ! (cd "$dir" && go build $pkgs && go test -count=1 -run '^$' $pkgs) >"$log" 2>&1; then
		rows+=("$name|ERROR: does not build ($(grep -m1 -v '^#' "$log"))")
		bad=1
	elif (cd "$dir" && go test -count=1 -run "$run" $pkgs) >"$log" 2>&1; then
		rows+=("$name|SURVIVED")
		bad=1
	else
		killers=$(sed -n 's/^ *--- FAIL: \([^ /]*\).*/\1/p' "$log" | sort -u | paste -sd' ')
		rows+=("$name|${killers:-(the package failed outside any test: $(grep -m1 -E 'FAIL|panic' "$log"))}")
	fi
	rm -rf "$dir"
	echo "mutants: $name done" >&2
done

printf '%s\n' "mutant|killed by" "${rows[@]}" | awk -F'|' '{ printf "%-28s %s\n", $1, $2 }'
exit $bad
