#!/usr/bin/env bash
# Non-test and test line counts of the Rust sources, and their deltas,
# between two trees.
#
# Usage: scripts/line_delta.sh [BASE] [TARGET]
#
# BASE defaults to HEAD~1. TARGET is a commit; without it the working
# tree is counted (tracked and untracked files that are not ignored).
#
# Method: every `.rs` file under crates/, src/ and tests/ counts. A file
# inside a `tests/` or `benches/` directory is test code. In any other
# file the lines from the first `#[cfg(test)]` on are test code and the
# lines before it are non-test code.
set -euo pipefail

base=${1:-HEAD~1}
target=${2:-}
cd "$(git rev-parse --show-toplevel)"

# Prints "NONTEST TEST" for the file read from stdin, named $1.
split_file() {
  awk -v path="$1" '
    BEGIN { test = (path ~ /(^|\/)(tests|benches)\//) }
    !test && /#\[cfg\(test\)\]/ { test = 1 }
    { if (test) t++; else n++ }
    END { print n + 0, t + 0 }'
}

# Prints "NONTEST TEST" summed over the tree of commit $1, or over the
# working tree when $1 is empty.
count() {
  local rev=$1 path
  if [ -n "$rev" ]; then
    git ls-tree -r --name-only "$rev" -- crates src tests
  else
    git ls-files --cached --others --exclude-standard -- crates src tests
  fi | grep '\.rs$' | while read -r path; do
    if [ -n "$rev" ]; then
      git show "$rev:$path" | split_file "$path"
    elif [ -f "$path" ]; then
      split_file "$path" <"$path"
    fi
  done | awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

git rev-parse --verify --quiet "$base^{commit}" >/dev/null ||
  { echo "line_delta: unknown commit \`$base\`" >&2; exit 2; }
if [ -n "$target" ]; then
  git rev-parse --verify --quiet "$target^{commit}" >/dev/null ||
    { echo "line_delta: unknown commit \`$target\`" >&2; exit 2; }
fi

read -r base_n base_t < <(count "$base")
read -r new_n new_t < <(count "$target")
printf 'non-test %+d (%d -> %d)\n' $((new_n - base_n)) "$base_n" "$new_n"
printf 'test     %+d (%d -> %d)\n' $((new_t - base_t)) "$base_t" "$new_t"
