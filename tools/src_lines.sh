#!/usr/bin/env bash
# Net src/ line count: the lines of C++ source (.h and .cc) under src/
# at a git ref and in the working tree, and the lines added and removed
# between the two. Run from anywhere in the repository:
#
#   tools/src_lines.sh          # HEAD against the working tree
#   tools/src_lines.sh <ref>    # <ref> against the working tree
#
# Before a change is committed, the default compares it with its
# parent. Untracked files under src/ count as added.
set -euo pipefail

cd "$(dirname "$0")/.."
ref="${1:-HEAD}"
if ! git rev-parse --verify --quiet "${ref}^{commit}" >/dev/null; then
  echo "src_lines: not a commit: $ref" >&2
  exit 2
fi

# `*` in a git pathspec also matches `/`, so these reach every subdir.
specs=('src/*.h' 'src/*.cc')

at_ref="$(git archive "$ref" src \
            | tar -x -O --wildcards 'src/*.h' 'src/*.cc' | wc -l)"
in_tree="$(find src -type f \( -name '*.h' -o -name '*.cc' \) \
             -exec cat {} + | wc -l)"

read -r added removed < <(git diff --numstat "$ref" -- "${specs[@]}" \
                            | awk '{a += $1; r += $2} END {print a + 0, r + 0}')
untracked="$(git ls-files -z --others --exclude-standard -- "${specs[@]}" \
               | xargs -0 -r cat | wc -l)"
added=$((added + untracked))

printf 'src/ .h/.cc lines at %s (%s): %d\n' \
       "$ref" "$(git rev-parse --short "$ref")" "$at_ref"
printf 'src/ .h/.cc lines in the working tree: %d\n' "$in_tree"
printf 'added %d, removed %d, net %+d\n' \
       "$added" "$removed" "$((in_tree - at_ref))"
